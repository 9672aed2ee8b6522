import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hgm_ehr.cnn import CnnTrainConfig
from hgm_ehr.evaluate import ExperimentConfig
from hgm_ehr.hgm import HgmTrainConfig
from hgm_ehr.ingest import GenConfig

from test_acceptance import DESK_EXPERIMENT, DESK_GEN, DESK_GEN_SEED

# imported by name, so that --jobs workers can unpickle its functions
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import bench  # noqa: E402

TINY_GEN = GenConfig(n_patients=24, n_labs=4, n_diagnoses=5, window_hours=6, prevalence=0.4)
TINY_EXPERIMENT = ExperimentConfig(
    k_folds=2, hgm=HgmTrainConfig(d=4, epochs=1),
    cnn=CnnTrainConfig(n_filters=3, kernel=2, epochs=2))


def test_seeds_run_criterion_4():
    gen, experiment = bench.desk_config(101)
    assert gen == GenConfig(signal=1.0, **DESK_GEN)
    assert experiment == DESK_EXPERIMENT
    assert bench.GEN_SEED == DESK_GEN_SEED
    assert bench.SEEDS == tuple(range(101, 109))
    assert bench.desk_config(105)[1] == replace(DESK_EXPERIMENT, seed=105)


def test_corrected_t_by_hand():
    diffs = [0.01, 0.03, -0.01, 0.02]
    mean, var = 0.0125, (0.0025 ** 2 + 0.0175 ** 2 + 0.0225 ** 2 + 0.0075 ** 2) / 3
    assert bench.corrected_t(diffs) == pytest.approx(mean / math.sqrt((1 / 4 + 1 / 9) * var))
    # the correction only shrinks t below the naive paired t
    assert bench.corrected_t(diffs) < mean / math.sqrt(var / 4)
    assert bench.corrected_t([0.0] * 80) == 0.0
    assert bench.corrected_t([0.25] * 80) == math.inf


class TestCompare:
    @pytest.fixture(scope="class")
    def runs(self):
        return bench.run_seeds(seeds=(3, 4), gen=TINY_GEN, experiment=TINY_EXPERIMENT)

    def test_record_holds_every_fold_of_every_arm(self, runs):
        assert sorted(runs) == ["3", "4"]
        for result in runs.values():
            assert sorted(result) == sorted(bench.ARMS)
            for arm in bench.ARMS:
                row = result[arm]
                assert row["folds"] == [0, 1]
                assert len(row["auroc"]) == len(row["auprc"]) == len(row["scores"]) == 2
                assert sum(len(s) for s in row["scores"]) == TINY_GEN.n_patients

    def test_same_code_changes_nothing(self, runs):
        again = json.loads(json.dumps(bench.run_seeds(
            seeds=(3, 4), jobs=2, gen=TINY_GEN, experiment=TINY_EXPERIMENT)))
        table = bench.compare(again, runs)
        for arm in bench.ARMS:
            assert table[arm] == {"folds": 4, "changed": 0, "mean_diff": 0.0, "t": 0.0,
                                  "max_score_diff": 0.0}
        text = bench.format_comparison(table)
        assert "0 of 12 per-fold AUROCs changed" in text
        assert "within fold noise" in text

    def test_a_moved_fold_is_counted(self, runs):
        moved = json.loads(json.dumps(runs))
        moved["4"]["CNN"]["auroc"][1] -= 0.05
        moved["4"]["CNN"]["scores"][0][2] += 1e-9
        table = bench.compare(moved, runs)
        assert table["CNN"]["changed"] == 1
        assert table["CNN"]["mean_diff"] == pytest.approx(-0.0125)
        assert table["CNN"]["t"] == pytest.approx(bench.corrected_t([0, 0, 0, -0.05]))
        assert table["CNN"]["max_score_diff"] == pytest.approx(1e-9)
        assert table["HGM"]["changed"] == table["HGM_CNN"]["changed"] == 0

    def test_other_folds_or_seeds_refused(self, runs):
        with pytest.raises(ValueError, match="seed sets differ"):
            bench.compare({"3": runs["3"]}, runs)
        cut = json.loads(json.dumps(runs))
        cut["3"]["HGM"]["scores"][0].pop()
        with pytest.raises(ValueError, match="seed 3 HGM: the folds differ"):
            bench.compare(cut, runs)


def test_code_identity_outside_git(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("A = 1\n")
    env = bench.environment(tmp_path)
    assert env["git_sha"] is None and env["dirty"] is None
    before = env["src_sha256"]
    (tmp_path / "pkg" / "a.py").write_text("A = 2\n")
    assert bench.source_digest(tmp_path) != before


def test_nothing_to_run_without_seeds():
    with pytest.raises(SystemExit):
        bench.parse_args([])


def test_label_writes_a_bench_file(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "SEEDS", (3, 4))
    monkeypatch.setattr(bench, "desk_config",
                        lambda seed: (TINY_GEN, replace(TINY_EXPERIMENT, seed=seed)))
    src = Path(__file__).resolve().parents[1] / "src"
    assert bench.main(["--label", "t", "--src", str(src), "--out", str(tmp_path / "seeds.json")]) == 0

    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["label"] == "t"
    env = record["environment"]
    assert set(env) == {"git_sha", "src_sha256", "dirty", "nproc", "loadavg", "cpu", "python",
                        "numpy", "blas", "blas_kernel"}
    # the code that ran: the digest perfbench/run.py's source_digest takes of the same
    # tree, and whether git reports changes under it (None outside a git checkout)
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + path.read_bytes())
    assert env["src_sha256"] == digest.hexdigest()
    status = bench.git(src, "status", "--porcelain", "--", ".")
    assert env["dirty"] == (None if status is None else bool(status.strip()))
    assert not any("directory" in key for key in env["blas"] or {})
    assert env["blas_kernel"] is None or isinstance(env["blas_kernel"], str)
    assert env["nproc"] >= 1 and len(env["loadavg"]) == 3
    for key, runs in (("desk_run_s", bench.DESK_RUNS), ("hgm_steps_per_s", bench.HGM_RUNS)):
        timing = record[key]
        assert timing["seed"] == 3 and len(timing["runs"]) == runs
        assert 0 < timing["q1"] <= timing["median"] <= timing["q3"]
    assert record["desk_run_s"]["median"] == sorted(record["desk_run_s"]["runs"])[1]
    assert record["hgm_steps_per_s"]["fold"] == 0
    seeds = json.loads((tmp_path / "seeds.json").read_text())
    assert record["mean_auroc"] == bench.seed_means(seeds["runs"])
    assert sorted(record["mean_auroc"]) == ["3", "4"]
