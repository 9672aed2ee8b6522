import functools
import logging
from dataclasses import asdict, replace

import numpy as np
import pytest

from hgm_ehr import evaluate
from hgm_ehr.cnn import CnnTrainConfig, FeatureMode
from hgm_ehr.evaluate import (ARMS, ExperimentConfig, assemble_outcome, auprc, auroc, kfold_split,
                              pr_points, roc_points, run_experiments,
                              score_fold, train_fold)
from hgm_ehr.hgm import HgmTrainConfig
from hgm_ehr.ingest import GenConfig, bin_events, generate_synthetic, synthetic_vocabulary
from hgm_ehr.sampler import SamplerConfig

from conftest import traced_peak


def brute_force_auroc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def rank_enumeration_auprc(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0.0
    total = 0.0
    n_pos = sum(labels)
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1.0
            total += hits / rank
    return total / n_pos


class TestKfoldSplit:
    def test_ten_patients_ten_singletons(self):
        folds = kfold_split([f"p{i}" for i in range(10)], 10, seed=0)
        assert len(folds) == 10
        assert all(len(f) == 1 for f in folds)

    def test_partition_property(self):
        ids = [f"p{i}" for i in range(37)]
        folds = kfold_split(ids, 5, seed=1)
        flat = [p for fold in folds for p in fold]
        assert sorted(flat) == sorted(ids)
        assert len(set(flat)) == len(ids)

    def test_balanced_remainder(self):
        folds = kfold_split([f"p{i}" for i in range(23)], 10, seed=2)
        sizes = sorted(len(f) for f in folds)
        assert set(sizes) <= {2, 3}
        assert sizes.count(3) == 3

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(["a", "b"], 3, seed=0)

    def test_deterministic(self):
        ids = [f"p{i}" for i in range(20)]
        assert kfold_split(ids, 4, seed=9) == kfold_split(ids, 4, seed=9)
        assert kfold_split(ids, 4, seed=9) != kfold_split(ids, 4, seed=10)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert auroc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_hand_counted_case(self):
        # pairs: (.9,.6)+, (.9,.1)+, (.4,.6)-, (.4,.1)+ -> 3/4
        assert auroc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [1, 1])

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            assert abs(auroc(scores, labels) - brute_force_auroc(scores, labels)) <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, 40)
        labels[0], labels[1] = 0, 1
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_random_scores_approach_prevalence(self):
        rng = np.random.default_rng(7)
        n = 20000
        labels = (rng.random(n) < 0.25).astype(int)
        scores = rng.random(n)
        assert auprc(scores, labels) == pytest.approx(0.25, abs=0.02)

    def test_hand_enumerated_case(self):
        assert auprc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            auprc([0.1, 0.2], [0, 0])

    def test_matches_rank_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            scores = np.round(rng.normal(size=n), 1)
            assert abs(auprc(scores, labels)
                       - rank_enumeration_auprc(scores.tolist(), labels.tolist())) <= 1e-12

    def test_inverted_ranker_matches_oracle_worst_case(self):
        labels = [1, 1, 0, 0, 0]
        scores = [0.1, 0.2, 0.8, 0.9, 0.7]  # positives ranked last
        assert auprc(scores, labels) == pytest.approx(
            rank_enumeration_auprc(scores, labels), abs=1e-12)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteScoresRejected:
    # a NaN score used to rank as a real one: auroc 0.75, auprc 0.5, and the
    # curve loops never advanced past it
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_auroc(self, bad):
        with pytest.raises(ValueError, match="finite"):
            auroc([bad, 0.1, 0.2, 0.3], [1, 0, 1, 0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_auprc(self, bad):
        with pytest.raises(ValueError, match="finite"):
            auprc([bad, 0.1, 0.2, 0.3], [1, 0, 1, 0])

    @pytest.mark.parametrize("points", [roc_points, pr_points])
    def test_curve_points(self, points):
        with pytest.raises(ValueError, match="finite"):
            points([float("nan"), 0.1, 0.2, 0.3], [1, 0, 1, 0])


class TestCurvePoints:
    def test_roc_endpoints(self):
        pts = roc_points([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert pts[0] == (float("inf"), 0.0, 0.0)
        assert pts[-1][1:] == (1.0, 1.0)

    def test_pr_final_recall_is_one(self):
        pts = pr_points([0.9, 0.8, 0.2, 0.1], [1, 0, 1, 0])
        assert pts[-1][1] == 1.0


def loop_auroc(scores, labels):
    # the per-run Python loop that evaluate.auroc replaced, kept as a reference
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC requires both classes")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def loop_curve(scores, labels, roc):
    # the per-run Python loops that roc_points and pr_points replaced
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    order = np.argsort(-scores, kind="stable")
    points = [(float("inf"), 0.0, 0.0)] if roc else []
    tp = fp = 0
    i = 0
    while i < scores.size:
        j = i
        thr = scores[order[i]]
        while j < scores.size and scores[order[j]] == thr:
            if labels[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        if roc:
            points.append((float(thr), fp / max(n_neg, 1), tp / max(n_pos, 1)))
        else:
            points.append((float(thr), tp / max(n_pos, 1), tp / (tp + fp)))
        i = j
    return points


def outcome_repr(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestTieRunsMatchLoops:
    @pytest.mark.parametrize("kind", ["continuous", "coarse", "few_values", "signed_zeros",
                                      "all_equal", "single_class"])
    def test_outputs_repr_identical(self, kind):
        rng = np.random.default_rng(["continuous", "coarse", "few_values", "signed_zeros",
                                     "all_equal", "single_class"].index(kind))
        for _ in range(150):
            n = int(rng.integers(1, 301))
            labels = rng.integers(0, 2, n)
            if kind == "continuous":
                scores = rng.normal(size=n)
            elif kind == "coarse":
                scores = np.round(rng.normal(size=n), 1)
            elif kind == "few_values":
                scores = rng.integers(0, 4, n) * 0.25
            elif kind == "signed_zeros":
                scores = rng.choice([0.0, -0.0, 0.5, -0.5], n)
            elif kind == "all_equal":
                scores = np.full(n, rng.choice([0.0, -0.0, 0.3]))
            else:
                scores = rng.normal(size=n)
                labels = np.full(n, rng.integers(0, 2))
            assert outcome_repr(auroc, scores, labels) == outcome_repr(loop_auroc, scores, labels)
            assert outcome_repr(roc_points, scores, labels) == \
                   outcome_repr(loop_curve, scores, labels, True)
            assert outcome_repr(pr_points, scores, labels) == \
                   outcome_repr(loop_curve, scores, labels, False)

    def test_negative_zero_run_keeps_its_first_score(self):
        assert repr(roc_points([0.0, -0.0, 1.0], [1, 0, 1])[2][0]) == "0.0"
        assert repr(roc_points([-0.0, 0.0, 1.0], [1, 0, 1])[2][0]) == "-0.0"
        assert repr(pr_points([0.0, -0.0], [1, 0])[0][0]) == "0.0"


def small_corpus(signal=1.0, n=80, seed=13):
    cfg = GenConfig(n_patients=n, n_labs=8, n_diagnoses=12, window_hours=6,
                    signal=signal, prevalence=0.35)
    return generate_synthetic(cfg, seed=seed), synthetic_vocabulary(cfg)


def fast_config(k=4, seed=5):
    return ExperimentConfig(
        k_folds=k, seed=seed,
        hgm=HgmTrainConfig(epochs=2, learning_rate=0.05, d=8,
                           sampler=SamplerConfig(n_diagnoses=4, n_labs=4, n_copatients=4,
                                                 negatives_per_positive=3)),
        cnn=CnnTrainConfig(n_filters=6, kernel=2, epochs=10, learning_rate=0.05),
    )


def recorded_train_fold(calls, train, arms, window_hours, vocab, config, fold_index):
    calls.append((window_hours, fold_index))
    return train_fold(train, arms, window_hours, vocab, config, fold_index)


def nan_weight_fold(bad_fold, train, arms, window_hours, vocab, config, fold_index):
    """train_fold, with one NaN conv filter weight in fold bad_fold's CNNs."""
    models = train_fold(train, arms, window_hours, vocab, config, fold_index)
    if fold_index == bad_fold:
        for params in models.cnn_params.values():
            params.filters[0, 0, 0] = np.nan
    return models


class TestRunExperiment:
    def test_report_structure_and_determinism(self):
        records, vocab = small_corpus()
        report = run_experiments(records, vocab, ("CNN",), 6, fast_config())["CNN"].report
        assert report.arm == "CNN"
        assert report.window == 6
        assert len(report.folds) == 4
        assert all(0.0 <= f.auroc <= 1.0 and 0.0 <= f.auprc <= 1.0 for f in report.folds)
        assert sum(f.n_test for f in report.folds) == len(records)
        again = run_experiments(records, vocab, ("CNN",), 6, fast_config())["CNN"].report
        assert report == again

    def test_shared_split_across_arms(self):
        records, vocab = small_corpus()
        outcomes = run_experiments(records, vocab, ("CNN", "HGM_CNN"), 6, fast_config())
        folds_a = [(f.fold, f.n_test, f.n_pos) for f in outcomes["CNN"].report.folds]
        folds_b = [(f.fold, f.n_test, f.n_pos) for f in outcomes["HGM_CNN"].report.folds]
        assert folds_a == folds_b

    def test_unknown_arm_rejected(self):
        records, vocab = small_corpus()
        message = r"^unknown arm 'MLP'; expected one of \['CNN', 'HGM', 'HGM_CNN'\]$"
        with pytest.raises(ValueError, match=message):
            run_experiments(records, vocab, ("MLP",), 6, fast_config())

    def test_arms_are_the_feature_modes(self):
        # the enum's order is the arms' order; each arm's CNN input is the README's arm table
        assert ARMS == ("HGM", "CNN", "HGM_CNN")
        assert [FeatureMode(arm) for arm in ARMS] == [
            FeatureMode.EMBED_ONLY, FeatureMode.RAW_LABS, FeatureMode.EMBED_PLUS_LABS]
        assert [FeatureMode(arm).needs_embedding for arm in ARMS] == [True, False, True]

    def test_non_finite_event_value_names_patient(self, monkeypatch):
        # one NaN used to surface as a CNN or HGM divergence naming neither patient nor stage;
        # p00005 is held out in fold 0, which used to train before scoring refused it
        from hgm_ehr.seeds import derive_seed

        cfg = GenConfig(n_patients=40, n_labs=6, n_diagnoses=8, window_hours=6, prevalence=0.4)
        records = generate_synthetic(cfg, seed=derive_seed(3, "synth"))
        bad = next(r for r in records if r.patient_id == "p00005")
        bad.events["value"][0] = np.nan
        calls = []
        monkeypatch.setattr(evaluate, "train_fold", functools.partial(recorded_train_fold, calls))
        with pytest.raises(ValueError, match=r"^patient 'p00005': value must be finite"):
            run_experiments(records, synthetic_vocabulary(cfg), ARMS, 6, fast_config(k=2, seed=3))
        assert calls == []

    def test_single_class_fold_skipped_with_warning(self, caplog):
        # two deaths placed in two different test folds: those folds are
        # evaluable, the remaining all-negative folds are skipped
        from hgm_ehr.seeds import derive_seed

        records, vocab = small_corpus(n=8)
        cfg = fast_config(k=4)
        by_id = {r.patient_id: r for r in records}
        folds = kfold_split([r.patient_id for r in records], 4,
                            derive_seed(cfg.seed, "kfold", window=6))
        for rec in records:
            rec.died = False
        by_id[folds[0][0]].died = True
        by_id[folds[1][0]].died = True
        with caplog.at_level(logging.WARNING, logger="hgm_ehr.evaluate"):
            report = run_experiments(records, vocab, ("CNN",), 6, cfg)["CNN"].report
        assert "single-class" in caplog.text
        assert len(report.folds) == 2
        assert all(f.n_pos == 1 for f in report.folds)

    def test_all_folds_single_class_rejected(self):
        records, vocab = small_corpus(n=6)
        for rec in records:
            rec.died = True
        with pytest.raises(ValueError, match="no evaluable folds"):
            run_experiments(records, vocab, ("CNN",), 6, fast_config(k=3))

    def test_single_class_training_split_rejected_before_training(self, monkeypatch):
        # one death among 30 patients in 3 folds: the fold that tests it has
        # both classes in its test set and only survivors to train on
        from hgm_ehr.seeds import derive_seed

        records, vocab = small_corpus(n=30)
        cfg = fast_config(k=3)
        folds = kfold_split([r.patient_id for r in records], 3,
                            derive_seed(cfg.seed, "kfold", window=6))
        for rec in records:
            rec.died = rec.patient_id == folds[1][0]
        trained = []
        monkeypatch.setattr(evaluate, "train_hgm", lambda *args, **kw: trained.append(args))
        with pytest.raises(ValueError, match=r"^window 6h fold 1: the training split is "
                                             r"single-class \(0 of 20 patients died\)"):
            run_experiments(records, vocab, ("HGM", "CNN"), 6, cfg)
        assert trained == []

    def test_diverging_embeddings_name_fold_and_window(self, monkeypatch):
        def diverge(graph, config, on_epoch=None):
            raise FloatingPointError("hgm: non-finite loss or parameters after epoch 2/2")

        monkeypatch.setattr(evaluate, "train_hgm", diverge)
        records, vocab = small_corpus(n=12)
        with pytest.raises(FloatingPointError,
                           match=r"^window 6h fold 3: hgm: non-finite .* epoch 2/2$"):
            train_fold(records, ("HGM",), 6, vocab, fast_config(), 3)

    def test_diverging_cnn_names_fold_window_and_arm(self):
        records, vocab = small_corpus(n=40)
        cfg = fast_config()
        cfg = replace(cfg, cnn=replace(cfg.cnn, learning_rate=1e3))
        with pytest.raises(FloatingPointError,
                           match=r"^window 6h fold 2, arm CNN: cnn: .* after epoch \d+/10: "):
            train_fold(records, ("CNN",), 6, vocab, cfg, 2)

    def test_std_is_sample_std(self):
        records, vocab = small_corpus()
        report = run_experiments(records, vocab, ("CNN",), 6, fast_config())["CNN"].report
        aurocs = np.array([f.auroc for f in report.folds])
        assert report.std_auroc == pytest.approx(float(aurocs.std(ddof=1)), abs=1e-15)

    def test_report_dict_schema(self):
        records, vocab = small_corpus()
        report = run_experiments(records, vocab, ("HGM",), 6, fast_config())["HGM"].report
        d = asdict(report)
        assert set(d) == {"arm", "window", "folds", "mean_auroc", "std_auroc",
                          "mean_auprc", "std_auprc"}
        assert all(set(f) == {"fold", "auroc", "auprc", "n_test", "n_pos"} for f in d["folds"])

    def test_scoring_peak_memory_is_the_binned_split(self):
        # the split is z-scored as it is binned; copying its records z-scored
        # first held ~1.95x the binned pair. The pair is mapped outside the heap,
        # where tracemalloc does not see it, so it is added to the traced peak
        cfg = GenConfig(n_patients=100, n_labs=8, n_diagnoses=12, window_hours=48, prevalence=0.35)
        records = generate_synthetic(cfg, seed=13)
        train, test = records[:50], records[50:]
        models = train_fold(train, ("CNN",), 48, synthetic_vocabulary(cfg), fast_config(), 0)
        _, peak = traced_peak(score_fold, models, test, ("CNN",))
        values, observed = bin_events(test, 48, models.normalizer)
        pair = values.nbytes + observed.nbytes
        assert peak + pair <= 1.5 * pair

    def test_label_permutation_guard(self):
        # scores from a trained fold carry no information about permuted labels
        records, vocab = small_corpus(n=120)
        by_id = {r.patient_id: r for r in records}
        ids = [r.patient_id for r in records]
        folds = kfold_split(ids, 2, seed=3)
        train = [by_id[i] for i in ids if i not in set(folds[0])]
        test = [by_id[i] for i in folds[0]]
        models = train_fold(train, ("CNN",), 6, vocab, fast_config(), fold_index=0)
        scores = score_fold(models, test, ("CNN",))["CNN"]
        rng = np.random.default_rng(4)
        aurocs = []
        for _ in range(40):
            shuffled = rng.permutation([int(r.died) for r in test])
            if shuffled.min() == shuffled.max():
                continue
            aurocs.append(auroc(scores, shuffled))
        assert 0.4 <= float(np.mean(aurocs)) <= 0.6

    def test_fit_stands_in_for_train_fold(self):
        records, vocab = small_corpus(n=40)
        cfg = fast_config(k=3)
        trained = run_experiments(records, vocab, ("CNN",), 6, cfg)
        calls = []
        fitted = run_experiments(records, vocab, ("CNN",), 6, cfg,
                                 fit=functools.partial(recorded_train_fold, calls))
        assert calls == [(6, 0), (6, 1), (6, 2)]
        assert fitted["CNN"].report == trained["CNN"].report
        # workers receive fit pickled, once each
        parallel = run_experiments(records, vocab, ("CNN",), 6, cfg, jobs=2,
                                   fit=functools.partial(recorded_train_fold, []))
        assert parallel["CNN"].report == trained["CNN"].report

    def test_non_finite_scores_name_window_fold_and_arm(self):
        records, vocab = small_corpus(n=40)
        with pytest.raises(ValueError, match=r"^window 6h fold 1, arm CNN: scores must be finite$"):
            run_experiments(records, vocab, ("CNN",), 6, fast_config(k=3),
                            fit=functools.partial(nan_weight_fold, 1))

    def test_parallel_matches_serial(self):
        records, vocab = small_corpus(n=40)
        cfg = fast_config(k=3)
        serial = run_experiments(records, vocab, ("CNN",), 6, cfg, jobs=1)
        parallel = run_experiments(records, vocab, ("CNN",), 6, cfg, jobs=2)
        assert serial["CNN"].report == parallel["CNN"].report
        assert np.array_equal(serial["CNN"].scores, parallel["CNN"].scores)


def test_assemble_outcome_pools_scores():
    fold_results = [
        (0, np.array([0.9, 0.1]), np.array([1, 0])),
        (1, np.array([0.8, 0.3]), np.array([1, 0])),
    ]
    outcome = assemble_outcome("CNN", 6, fold_results)
    assert outcome.report.mean_auroc == 1.0
    assert outcome.scores.tolist() == [0.9, 0.1, 0.8, 0.3]
    assert outcome.labels.tolist() == [1, 0, 1, 0]
