import hashlib

import numpy as np
import pytest

from hgm_ehr.evaluate import auroc
from hgm_ehr.ingest import (EVENT_DTYPE, DataFormatError, GenConfig, Vocabulary, bin_events,
                            fit_normalizer, generate_synthetic, normalize_records, parse_records,
                            synthetic_vocabulary, write_corpus)

from conftest import make_record, traced_peak, unit_normalizer


def write_corpus_files(tmp_path, events_rows, diagnoses_rows, outcomes_rows):
    events = tmp_path / "events.csv"
    diagnoses = tmp_path / "diagnoses.csv"
    outcomes = tmp_path / "outcomes.csv"
    events.write_text("patient_id,hours_before_end,lab_name,value\n"
                      + "".join(r + "\n" for r in events_rows))
    diagnoses.write_text("patient_id,diagnosis_name\n"
                         + "".join(r + "\n" for r in diagnoses_rows))
    outcomes.write_text("patient_id,died,end_hour\n"
                        + "".join(r + "\n" for r in outcomes_rows))
    return events, diagnoses, outcomes


class TestParseRecords:
    def test_patient_with_no_events(self, tmp_path):
        files = write_corpus_files(tmp_path, [], [], ["p1,1,50"])
        records, _ = parse_records(*files)
        assert len(records) == 1
        rec = records[0]
        assert rec.died is True
        assert rec.end_hour == 50
        assert rec.events.dtype == EVENT_DTYPE and len(rec.events) == 0

    def test_events_map_directly(self, tmp_path):
        files = write_corpus_files(
            tmp_path,
            ["p1,2.0,sodium,140.0", "p1,3.0,sodium,138.5"],
            ["p1,sepsis"],
            ["p1,0,10"],
        )
        records, vocab = parse_records(*files)
        rec = records[0]
        assert len(rec.events) == 2
        assert rec.events[0].tolist() == (2.0, 0, 140.0)
        assert rec.diagnoses == {0}
        assert vocab.n_labs == 1 and vocab.n_diagnoses == 1

    def test_vocabulary_counts_distinct_lab_names(self, tmp_path):
        # corpus with 409 distinct lab names across a handful of patients
        events = [f"p{i % 4},1.5,lab_name_{i},{i * 0.25}" for i in range(409)]
        outcomes = [f"p{i},{i % 2},30" for i in range(4)]
        files = write_corpus_files(tmp_path, events, [], outcomes)
        _, vocab = parse_records(*files)
        assert vocab.n_labs == 409

    def test_malformed_row_names_file_and_line(self, tmp_path):
        files = write_corpus_files(tmp_path, ["p1,notanumber,sodium,1.0"], [], ["p1,0,10"])
        with pytest.raises(DataFormatError, match=r"events\.csv:2"):
            parse_records(*files)

    @pytest.mark.parametrize("hours, value", [("-1", "1.0"), ("nan", "1.0"), ("inf", "1.0"),
                                              ("1.0", "nan"), ("1.0", "inf"), ("1.0", "-inf")])
    def test_non_finite_or_negative_number_names_file_and_line(self, tmp_path, hours, value):
        files = write_corpus_files(tmp_path, [f"p1,{hours},sodium,{value}"], [], ["p1,0,10"])
        with pytest.raises(DataFormatError, match=r"events\.csv:2: (hours_before_end|value) must"):
            parse_records(*files)

    def test_event_patient_missing_from_outcomes(self, tmp_path):
        files = write_corpus_files(tmp_path, ["ghost,1.0,sodium,1.0"], [], ["p1,0,10"])
        with pytest.raises(DataFormatError, match="ghost"):
            parse_records(*files)

    def test_diagnosis_patient_missing_from_outcomes(self, tmp_path):
        files = write_corpus_files(tmp_path, [], ["ghost,sepsis"], ["p1,0,10"])
        with pytest.raises(DataFormatError, match="ghost"):
            parse_records(*files)

    def test_bad_died_flag(self, tmp_path):
        files = write_corpus_files(tmp_path, [], [], ["p1,yes,10"])
        with pytest.raises(DataFormatError, match=r"outcomes\.csv:2"):
            parse_records(*files)

    @pytest.mark.parametrize("outcome, line, problem", [
        ("p1,0,ten", 2, "end_hour must be an integer, got 'ten'"),
        ("p1,0,1.5", 2, "end_hour must be an integer, got '1.5'"),
        ("p1,0,-1", 2, "end_hour must be non-negative"),
        ("p0,1,4\np1,0,10\np0,0,3", 4, "duplicate patient 'p0'"),
    ], ids=["word", "fraction", "negative", "duplicate"])
    def test_bad_outcome_row_names_file_and_line(self, tmp_path, outcome, line, problem):
        files = write_corpus_files(tmp_path, [], [], [outcome])
        with pytest.raises(DataFormatError) as refused:
            parse_records(*files)
        assert str(refused.value) == f"{files[2]}:{line}: {problem}"

    @pytest.mark.parametrize("table, row, width, got", [
        (0, "p1,1.0,sodium", 4, 3), (1, "p1,sepsis,extra", 2, 3), (2, "p1,0", 3, 2),
    ], ids=["events", "diagnoses", "outcomes"])
    def test_wrong_column_count_names_file_and_line(self, tmp_path, table, row, width, got):
        rows = [["p1,1.0,sodium,1.0"], ["p1,sepsis"], ["p1,0,10"]]
        rows[table] = [row]
        files = write_corpus_files(tmp_path, *rows)
        with pytest.raises(DataFormatError) as refused:
            parse_records(*files)
        assert str(refused.value) == f"{files[table]}:2: expected {width} columns, got {got}"

    @pytest.mark.parametrize("table, row, column", [
        (0, ",1.0,sodium,1.0", "patient_id"), (0, "p1,1.0,,1.0", "lab_name"),
        (1, "p1,", "diagnosis_name"), (2, ",0,10", "patient_id"),
    ], ids=["events_patient", "events_lab", "diagnoses", "outcomes"])
    def test_empty_name_names_file_line_and_column(self, tmp_path, table, row, column):
        rows = [["p1,1.0,sodium,1.0"], ["p1,sepsis"], ["p1,0,10"]]
        rows[table] = rows[table] + [row]
        files = write_corpus_files(tmp_path, *rows)
        with pytest.raises(DataFormatError) as refused:
            parse_records(*files)
        assert str(refused.value) == f"{files[table]}:3: {column} is empty"

    def test_wrong_header_rejected(self, tmp_path):
        files = write_corpus_files(tmp_path, [], [], ["p1,0,10"])
        files[0].write_text("patient,hours,lab,value\np1,1.0,na,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            parse_records(*files)

    def test_leading_blank_lines_before_headers(self, tmp_path):
        rows = (["p1,2.0,sodium,140.0", "p2,1.5,potassium,4.1"], ["p1,sepsis"],
                ["p1,0,10", "p2,1,20"])
        plain, plain_vocab = parse_records(*write_corpus_files(tmp_path, *rows))
        blank = tmp_path / "blank"
        blank.mkdir()
        files = write_corpus_files(blank, *rows)
        for path in files:
            path.write_text("\n" + path.read_text())
        records, vocab = parse_records(*files)
        assert vocab.labs == plain_vocab.labs and vocab.diagnoses == plain_vocab.diagnoses
        for got, want in zip(records, plain, strict=True):
            assert (got.patient_id, got.died, got.end_hour, got.diagnoses) == \
                (want.patient_id, want.died, want.end_hour, want.diagnoses)
            assert np.array_equal(got.events, want.events)

    @pytest.mark.parametrize("table", [0, 1, 2])
    def test_zero_byte_table_rejected(self, tmp_path, table):
        files = write_corpus_files(tmp_path, ["p1,1.0,sodium,1.0"], ["p1,sepsis"], ["p1,0,10"])
        files[table].write_text("")
        with pytest.raises(DataFormatError, match=rf"{files[table].name}: empty file"):
            parse_records(*files)

    def test_existing_vocabulary_is_extended(self, tmp_path):
        files = write_corpus_files(tmp_path, ["p1,1.0,new_lab,2.0"], [], ["p1,0,10"])
        vocab = Vocabulary(labs=["old_lab"], diagnoses=[])
        records, vocab = parse_records(*files, vocab=vocab)
        assert vocab.labs == ["old_lab", "new_lab"]
        assert records[0].events["lab"][0] == 1


class TestVocabulary:
    def test_json_round_trip(self, tmp_path):
        vocab = Vocabulary(labs=["a", "b"], diagnoses=["x"])
        vocab.save(tmp_path / "vocab.json")
        loaded = Vocabulary.load(tmp_path / "vocab.json")
        assert loaded.labs == ["a", "b"]
        assert loaded.diagnoses == ["x"]
        assert loaded.lab_id("b") == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(labs=["a", "a"], diagnoses=[])

    def test_duplicate_diagnosis_names_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate diagnosis names in vocabulary$"):
            Vocabulary(labs=["a"], diagnoses=["x", "y", "x"])

    @pytest.mark.parametrize("text, named", [
        ('{"diagnoses": []}', "vocabulary needs 'labs' as a list of names"),
        ('{"labs": "abc", "diagnoses": []}', "vocabulary needs 'labs' as a list of names"),
        ('{"labs": ["a"], "diagnoses": [["x"]]}',
         "vocabulary needs 'diagnoses' as a list of names"),
        ('["a", "b"]', "vocabulary needs 'labs' as a list of names"),
        ('{"labs": ["a", "b", "a"], "diagnoses": []}', "duplicate lab names in vocabulary"),
        ('{"labs": ["a"], "diagnoses": [', "not valid JSON"),
    ], ids=["no_labs", "labs_string", "diagnosis_not_a_name", "not_an_object", "duplicate",
            "bad_json"])
    def test_malformed_file_refused_naming_it(self, tmp_path, text, named):
        path = tmp_path / "vocab.json"
        path.write_text(text)
        with pytest.raises(ValueError) as refused:
            Vocabulary.load(path)
        assert str(refused.value).startswith(f"{path}: {named}")


def split_48h():
    """200 synthetic patients over 48 h and 10 labs, ~27k events."""
    return generate_synthetic(GenConfig(n_patients=200, n_labs=10, n_diagnoses=4,
                                        window_hours=48), seed=5)


def unit_bin(records, window_hours, n_labs):
    """bin_events under a unit normalizer of n_labs labs, called as fit_normalizer is."""
    return bin_events(records, window_hours, unit_normalizer(n_labs))


def unit_normalize(records, window_hours, n_labs):
    """normalize_records under a unit normalizer of n_labs labs, called as fit_normalizer is."""
    return normalize_records(records, unit_normalizer(n_labs))


class TestBinEvents:
    def test_within_hour_duplicates_averaged(self):
        rec = make_record("p", [(3.2, 5, 2.0), (3.8, 5, 4.0)], set())
        values, observed = bin_events([rec], 6, unit_normalizer(10))
        assert values[0, 3, 5] == pytest.approx(3.0)
        assert observed[0, 3, 5]

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(ValueError, match=r"^window_hours must be >= 1$"):
            bin_events([make_record("p", [(0.5, 0, 1.0)], set())], window, unit_normalizer(2))

    def test_no_events_yields_all_unobserved(self):
        values, observed = bin_events([make_record("p", [], set())], 6, unit_normalizer(4))
        assert values.shape == observed.shape == (1, 6, 4)
        assert not observed.any()
        assert np.all(values == 0.0)

    def test_out_of_window_event_dropped(self):
        _, observed = bin_events([make_record("p", [(7.5, 2, 9.0)], set())], 6, unit_normalizer(4))
        assert not observed.any()

    def test_window_boundary_is_half_open(self):
        # an event at exactly window_hours is outside; at window-epsilon it is in bin window-1
        rec = make_record("p", [(6.0, 0, 1.0), (5.999, 1, 2.0)], set())
        _, observed = bin_events([rec], 6, unit_normalizer(2))
        assert not observed[0, 5, 0]
        assert observed[0, 5, 1]

    def test_output_length_equals_window(self):
        rng = np.random.default_rng(0)
        for window in (1, 6, 12):
            records = [make_record(f"p{i}", [(float(rng.uniform(0, window + 3)),
                                              int(rng.integers(0, 5)), float(rng.normal()))
                                             for _ in range(40)], set())
                       for i in range(3)]
            values, observed = bin_events(records, window, unit_normalizer(5))
            assert values.shape == observed.shape == (3, window, 5)

    def test_observed_count_bounded_by_in_window_events(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            events = [(float(rng.uniform(0, 9)), int(rng.integers(0, 5)), float(rng.normal()))
                      for _ in range(rng.integers(0, 30))]
            rec = make_record("p", events, set())
            _, observed = bin_events([rec], 6, unit_normalizer(5))
            in_window = sum(1 for t, _, _ in events if t < 6)
            assert int(observed.sum()) <= in_window

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        events = [(float(rng.uniform(0, 6)), int(rng.integers(0, 4)), float(rng.normal()))
                  for _ in range(25)]
        base_values, base_observed = bin_events([make_record("p", events, set())], 6,
                                                unit_normalizer(4))
        for _ in range(5):
            perm = [events[i] for i in rng.permutation(len(events))]
            values, observed = bin_events([make_record("p", perm, set())], 6, unit_normalizer(4))
            assert np.array_equal(observed, base_observed)
            assert np.allclose(values, base_values)

    def test_split_equals_records_binned_alone(self):
        # no event leaks into a neighbouring patient, hour or lab cell
        cfg = GenConfig(n_patients=12, n_labs=5, n_diagnoses=4, window_hours=6)
        records = generate_synthetic(cfg, seed=11)
        values, observed = bin_events(records, 6, unit_normalizer(5))
        for p, rec in enumerate(records):
            alone_values, alone_observed = bin_events([rec], 6, unit_normalizer(5))
            assert np.array_equal(values[p], alone_values[0])
            assert np.array_equal(observed[p], alone_observed[0])

    def test_z_scores_as_normalize_records_does(self):
        # one pass z-scores each in-window event as it bins it: the bits are
        # those of binning normalize_records' copies of the records unscaled
        records = split_48h()
        assert any((rec.events["hours"] >= 48).any() for rec in records)
        norm = fit_normalizer(records, 48, 10)
        fused = bin_events(records, 48, norm)
        reference = bin_events(normalize_records(records, norm), 48, unit_normalizer(10))
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in reference]

    def test_peak_memory_is_the_output(self):
        # values and observed are allocated once and filled record by record;
        # binning the whole split in one bincount held ~5x the output. The two
        # are mappings of their own, which tracemalloc does not see, so they are
        # added here; as heap blocks they would count twice and fail
        (values, observed), peak = traced_peak(bin_events, split_48h(), 48, unit_normalizer(10))
        output = values.nbytes + observed.nbytes
        assert peak + output <= 1.25 * output

    def test_empty_split_bins_to_empty_arrays(self):
        values, observed = bin_events([], 6, unit_normalizer(4))
        assert values.shape == observed.shape == (0, 6, 4)
        assert (values.dtype, observed.dtype) == (np.float64, np.bool_)

    @pytest.mark.parametrize("lab", [-1, 4])
    def test_lab_outside_vocabulary_names_patient(self, lab):
        records = [make_record("ok", [(0.5, 0, 1.0)], set()),
                   make_record("bad", [(0.5, 1, 1.0), (1.5, lab, 2.0)], set())]
        message = r"patient 'bad': lab id outside vocabulary of size 4"
        for stage in (unit_bin, fit_normalizer, unit_normalize):
            with pytest.raises(ValueError, match=message):
                stage(records, 6, 4)

    @pytest.mark.parametrize("hours", [-1.5, float("nan"), float("inf")])
    def test_bad_hours_name_patient(self, hours):
        # -1.5 used to land in bin window-1 through int(-1.5) == -1
        records = [make_record("ok", [(0.5, 0, 1.0)], set()),
                   make_record("bad", [(hours, 1, 1.0)], set())]
        for stage in (unit_bin, fit_normalizer, unit_normalize):
            with pytest.raises(ValueError, match=r"patient 'bad': hours_before_end must be finite"):
                stage(records, 6, 4)

    @pytest.mark.parametrize("stage", [unit_bin, fit_normalizer, unit_normalize],
                             ids=["bin_events", "fit_normalizer", "normalize_records"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_value_names_patient(self, stage, value):
        # a NaN value used to make its lab's normalizer mean and std NaN for the whole split
        records = [make_record("ok", [(0.5, 0, 1.0)], set()),
                   make_record("bad", [(0.5, 1, 1.0), (1.5, 2, value)], set())]
        with pytest.raises(ValueError, match=r"patient 'bad': value must be finite \(lab 2, hours 1.5\)"):
            stage(records, 6, 4)


class TestNormalizer:
    def test_event_level_zscore(self):
        recs = [make_record("p0", [(0.5, 0, 2.0), (1.5, 0, 4.0)], set())]
        norm = fit_normalizer(recs, 6, 2)
        assert norm.mean[0] == pytest.approx(3.0)
        assert norm.mean[1] == 0.0 and norm.std[1] == 1.0
        out = normalize_records(recs, norm)
        assert out[0].events["value"].tolist() == pytest.approx([-1.0, 1.0])
        assert recs[0].events["value"].tolist() == [2.0, 4.0]  # the input is not rewritten

    def test_out_of_window_events_excluded_from_stats(self):
        recs = [make_record("p0", [(0.5, 0, 2.0), (9.0, 0, 100.0)], set())]
        norm = fit_normalizer(recs, 6, 1)
        assert norm.mean[0] == pytest.approx(2.0)

    def test_peak_memory_holds_no_copy_of_the_event_table(self):
        # the in-window lab and value columns and the squared values are 8
        # bytes an event each; a copy of the 24-byte event table beside them
        # took ~56 bytes an event
        records = split_48h()
        _, peak = traced_peak(fit_normalizer, records, 48, 10)
        assert peak <= 32 * sum(len(rec.events) for rec in records)


class TestGenerateSynthetic:
    def test_deterministic_for_seed(self):
        cfg = GenConfig(n_patients=20, n_labs=6, n_diagnoses=8, window_hours=6)
        assert generate_synthetic(cfg, seed=5) == generate_synthetic(cfg, seed=5)

    def test_different_seeds_differ(self):
        cfg = GenConfig(n_patients=20, n_labs=6, n_diagnoses=8, window_hours=6)
        assert generate_synthetic(cfg, seed=5) != generate_synthetic(cfg, seed=6)

    def test_stream_is_pinned(self):
        # the digest of every record's id, event bytes, sorted diagnoses and label;
        # a change to the generator's draws or their order changes it
        cfg = GenConfig(n_patients=30, n_labs=6, n_diagnoses=8, window_hours=6)
        digest = hashlib.sha256()
        for rec in generate_synthetic(cfg, seed=7):
            digest.update(rec.patient_id.encode() + rec.events.tobytes()
                          + repr((sorted(rec.diagnoses), rec.died)).encode())
        assert digest.hexdigest() == "b9309a7f1d065dbd9114b6289411185051df73506fb4941b0c841d217083e4d3"

    def test_no_signal_fixed_rule_auroc_near_half(self):
        cfg = GenConfig(n_patients=2000, n_labs=10, n_diagnoses=20, window_hours=6, signal=0.0)
        records = generate_synthetic(cfg, seed=33)
        labels = [int(r.died) for r in records]
        score = [len([d for d in r.diagnoses if d < cfg.n_risk_diagnoses]) for r in records]
        assert abs(auroc(score, labels) - 0.5) < 0.05

    def test_full_signal_diagnosis_logistic_oracle(self):
        # independent throwaway baseline: plain logistic regression on the
        # diagnosis multi-hots, batch gradient descent
        cfg = GenConfig(n_patients=500, n_labs=30, n_diagnoses=50, window_hours=12, signal=1.0)
        records = generate_synthetic(cfg, seed=20)
        X = np.zeros((len(records), cfg.n_diagnoses))
        for i, rec in enumerate(records):
            X[i, sorted(rec.diagnoses)] = 1.0
        y = np.array([int(r.died) for r in records])
        w = np.zeros(cfg.n_diagnoses)
        b = 0.0
        for _ in range(400):
            p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
            w -= 0.5 * (X.T @ (p - y)) / len(y)
            b -= 0.5 * float((p - y).mean())
        assert auroc(X @ w + b, y) > 0.8

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(n_patients=0, n_labs=5, n_diagnoses=5, window_hours=6)
        with pytest.raises(ValueError):
            GenConfig(n_patients=5, n_labs=5, n_diagnoses=5, window_hours=6,
                      signal=1.5)
        with pytest.raises(ValueError):
            GenConfig(n_patients=5, n_labs=5, n_diagnoses=5, window_hours=6,
                      prevalence=0.0)
        with pytest.raises(ValueError, match=r"^window_hours must be >= 1, got 0$"):
            GenConfig(n_patients=5, n_labs=5, n_diagnoses=5, window_hours=0)

    def test_events_respect_vocab_and_hours(self):
        cfg = GenConfig(n_patients=10, n_labs=4, n_diagnoses=6, window_hours=6)
        for rec in generate_synthetic(cfg, seed=9):
            assert np.all((0 <= rec.events["lab"]) & (rec.events["lab"] < 4))
            assert np.all(rec.events["hours"] >= 0)
            assert all(0 <= d < 6 for d in rec.diagnoses)


class TestCorpusRoundTrip:
    def test_write_then_parse_is_lossless(self, tmp_path):
        cfg = GenConfig(n_patients=12, n_labs=5, n_diagnoses=7, window_hours=6)
        records = generate_synthetic(cfg, seed=4)
        vocab = synthetic_vocabulary(cfg)
        paths = write_corpus(records, vocab, tmp_path)
        loaded_vocab = Vocabulary.load(paths["vocabulary"])
        loaded, _ = parse_records(paths["events"], paths["diagnoses"], paths["outcomes"],
                                  vocab=loaded_vocab)
        assert loaded == records
