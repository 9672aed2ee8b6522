"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

The repository's own suite (testpaths = tests) does not collect this file.
test_desk_hgm_matches_criterion_4 runs the full 10-fold criterion-4
experiment once and takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from tracer import Hook, Tracer, phase_of, self_times  # noqa: E402
from workloads import (DESK_EXPERIMENT, HOOKS, PHASE_OF, WORKLOADS,  # noqa: E402
                       FilesWorkload, InProcessWorkload)

from hgm_ehr import evaluate, ingest  # noqa: E402
from hgm_ehr.cnn import CnnTrainConfig  # noqa: E402
from hgm_ehr.evaluate import ExperimentConfig  # noqa: E402
from hgm_ehr.hgm import HgmTrainConfig  # noqa: E402
from hgm_ehr.sampler import SamplerConfig  # noqa: E402


# -- span arithmetic -------------------------------------------------------

# Two roots. Root 0 [0, 10] holds span 1 [1, 4] (which holds span 2 [2, 3])
# and span 3 [5, 9]; root 4 is [11, 12].
PARENT = [-1, 0, 1, 0, -1]
START = [0.0, 1.0, 2.0, 5.0, 11.0]
END = [10.0, 4.0, 3.0, 9.0, 12.0]


def test_self_times_on_hand_built_spans():
    got = self_times(PARENT, START, END)
    assert got.tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    # Self times of a root's subtree sum to the root's duration.
    assert got[:4].sum() == END[0] - START[0]


def test_phase_of_finds_innermost_phase():
    is_phase = [True, False, False, True, False]
    assert phase_of(PARENT, is_phase).tolist() == [0, 0, 0, 3, -1]


def test_layer_self_times_sum_to_phase_span(fake):
    tracer = Tracer()
    tracer.install([Hook("outer", "fakepkg.mod", "outer"), Hook("inner", "fakepkg.mod", "inner")])
    try:
        with tracer.phase("train"):
            fake.mod.outer(3)
            fake.mod.inner(2)
    finally:
        tracer.uninstall()
    layers = tracer.layer_self_by_phase()["train"]
    assert set(layers) == {"outer", "inner", "residual"}
    assert sum(layers.values()) == pytest.approx(tracer.phase_seconds("train"), abs=1e-12)
    totals = tracer.totals()
    assert totals["mod.outer"][0] == 1 and totals["mod.inner"][0] == 4
    assert totals["mod.outer"][1] > totals["mod.outer"][2]  # inclusive > self


# -- wrapper safety --------------------------------------------------------

class Untrainable(ValueError):
    pass


def _fake_package():
    """A package `fakepkg` whose `mod` binds functions another module re-imports."""
    mod = types.ModuleType("fakepkg.mod")

    def inner(n):
        return [n] * n

    def outer(n):
        return sum(len(mod.inner(n)) for _ in range(n))

    def echo(obj, *, flag=False):
        return obj

    def boom():
        raise KeyError("boom")

    def train(data, on_epoch=None):
        for epoch in range(3):
            if on_epoch is not None:
                on_epoch(epoch, 10.0 - epoch)
        return data

    class Thing:
        def go(self, x):
            if x < 0:
                raise Untrainable(x)
            return x * 2

    for fn in (inner, outer, echo, boom, train):
        setattr(mod, fn.__name__, fn)
    mod.Thing = Thing
    user = types.ModuleType("fakepkg.user")
    user.echo = echo  # a `from .mod import echo` binding
    package = types.ModuleType("fakepkg")
    package.mod, package.user = mod, user
    sys.modules.update({"fakepkg": package, "fakepkg.mod": mod, "fakepkg.user": user})
    return package


@pytest.fixture
def fake():
    package = _fake_package()
    yield package
    for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
        sys.modules.pop(name, None)


def test_wrappers_pass_arguments_results_and_exceptions_through(fake):
    originals = dict(vars(fake.mod))
    hooks = [
        Hook("x", "fakepkg.mod", "echo"),
        Hook("x", "fakepkg.mod", "boom"),
        Hook("x", "fakepkg.mod", "Thing.go", probe=lambda t, a, k, r: t.add("go.out", r)),
        Hook("x", "fakepkg.mod", "train", epoch_value="last_loss"),
        Hook("x", "fakepkg.mod", "gone"),
        Hook("x", "fakepkg.nomodule", "anything"),
        Hook("x", "fakepkg.mod", "Missing.method"),
    ]
    tracer = Tracer()
    tracer.install(hooks)
    try:
        payload = object()
        assert fake.mod.echo(payload, flag=True) is payload
        assert fake.user.echo(payload) is payload  # re-imported binding is wrapped too
        with pytest.raises(KeyError) as info:
            fake.mod.boom()
        assert info.value.args == ("boom",)
        thing = fake.mod.Thing()
        assert thing.go(4) == 8
        with pytest.raises(Untrainable):
            thing.go(-1)
        seen = []
        assert fake.mod.train(payload, on_epoch=lambda e, loss: seen.append((e, loss))) is payload
        assert seen == [(0, 10.0), (1, 9.0), (2, 8.0)]
        assert fake.mod.train(payload) is payload
    finally:
        tracer.uninstall()
    assert sorted(tracer.absent) == ["mod.Missing.method", "mod.gone", "nomodule.anything"]
    assert tracer.counts["mod.echo:calls"] == 2
    assert tracer.counts["mod.boom:raised:KeyError"] == 1
    assert tracer.counts["mod.Thing.go:raised:Untrainable"] == 1
    assert tracer.counts["go.out"] == 8
    assert tracer.values["last_loss"] == 8.0
    assert dict(vars(fake.mod)) == originals
    assert fake.user.echo is originals["echo"]


def test_failing_probe_marks_counter_absent(fake):
    tracer = Tracer()
    tracer.install([Hook("x", "fakepkg.mod", "echo", probe=lambda t, a, k, r: r.no_such_field)])
    try:
        assert fake.mod.echo(5) == 5
    finally:
        tracer.uninstall()
    assert tracer.absent == ["mod.echo:probe"]


def test_every_hook_resolves_against_current_program():
    tracer = Tracer()
    tracer.install(HOOKS)
    tracer.uninstall()
    assert tracer.absent == []


# -- workloads -------------------------------------------------------------

TINY_HGM = HgmTrainConfig(epochs=1, learning_rate=0.05, d=6,
                          sampler=SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                                negatives_per_positive=2))
TINY_EXPERIMENT = ExperimentConfig(k_folds=4, hgm=TINY_HGM,
                                   cnn=CnnTrainConfig(n_filters=4, kernel=2, epochs=3, batch_size=8,
                                                      learning_rate=0.05))
TINY_GEN = ingest.GenConfig(n_patients=48, n_labs=6, n_diagnoses=8, window_hours=6, prevalence=0.4)
TINY_WORKLOADS = (
    InProcessWorkload("tiny", TINY_GEN, ("HGM", "CNN", "HGM_CNN"), TINY_EXPERIMENT,
                      n_folds=2, setup_reps=3, setup_per_rep=2),
    FilesWorkload("tiny_files", TINY_GEN, ("HGM_CNN",), folds=2, d=6, hgm_epochs=1,
                  filters=4, cnn_epochs=3, setup_reps=3, setup_per_rep=2),
)


@pytest.mark.parametrize("workload", TINY_WORKLOADS, ids=lambda w: w.name)
def test_traced_runs_repeat_counts_and_match_untraced_scores(workload, tmp_path):
    problems = []
    setup = bench.TimedSetup(workload, 5, tmp_path)
    setup.refresh()
    untraced, traced = bench.run_traced(setup, 0.0, problems)
    assert problems == []
    assert len(traced) == 2
    for result, _, _ in traced:
        assert result.aurocs == untraced[0][0].aurocs
        assert result.auprcs == untraced[0][0].auprcs
    first, second = (bench.layer_metrics(t) for _, _, t in traced)
    for key in bench.EXACT_COUNTS:
        assert first[key] == second[key], key
    assert set(first) | {"trace.overhead"} == set(bench.PER_LAYER_UNITS)
    assert first["sampler.contexts"] > 0 and first["cnn.predict_calls"] > 0
    if isinstance(workload, FilesWorkload):
        assert first["checkpoint.bytes_written"] > 0 and first["ingest.events_parsed"] > 0
    tracer = traced[0][2]
    assert tracer.absent == []
    table = tracer.layer_self_by_phase()
    for phase in ("train", "score"):  # innermost phases: their self times cover the span
        assert sum(table[phase].values()) == pytest.approx(tracer.phase_seconds(phase), rel=1e-9)
    total = sum(sum(layers.values()) for layers in table.values())
    assert total == pytest.approx(tracer.phase_seconds("experiment"), rel=1e-9)


def test_untraced_run_takes_set_up_samples_and_restores_evaluate(tmp_path):
    workload = TINY_WORKLOADS[0]
    before = {name: getattr(evaluate, name) for name in ("kfold_split", *PHASE_OF)}
    setup = bench.TimedSetup(workload, 5, tmp_path)
    setup.refresh()
    problems = []
    reps = bench.run_untraced(setup, 0.0, problems)
    assert problems == []
    assert len(reps) == 1 and len(setup.times) == 1 + workload.setup_per_rep
    _, times = reps[0]
    assert 0 < times["train_s"] < times["experiment_s"]
    assert 0 < times["score_s"] < times["experiment_s"]
    assert {name: getattr(evaluate, name) for name in before} == before


def test_failed_fold_counts_and_fails_the_check(tmp_path, monkeypatch):
    workload = TINY_WORKLOADS[0]
    setup = bench.TimedSetup(workload, 5, tmp_path)
    setup.refresh()

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(evaluate, "score_fold", broken)
    problems = []
    reps = bench.run_untraced(setup, 0.0, problems)
    assert reps[0][0].failed == workload.n_folds
    assert problems


def test_desk_hgm_matches_criterion_4(tmp_path):
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import DESK_EXPERIMENT as CRITERION_4
    from test_acceptance import DESK_GEN, DESK_GEN_SEED

    desk = WORKLOADS["desk_hgm"]
    assert desk.config(CRITERION_4.seed) == CRITERION_4
    assert DESK_EXPERIMENT.hgm == CRITERION_4.hgm and DESK_EXPERIMENT.cnn == CRITERION_4.cnn
    assert desk.gen == ingest.GenConfig(signal=1.0, **DESK_GEN)
    records = ingest.generate_synthetic(desk.gen, DESK_GEN_SEED)
    vocab = ingest.synthetic_vocabulary(desk.gen)
    prefix = desk.run((records, vocab), CRITERION_4.seed, Tracer(), tmp_path)
    assert prefix.problems == [] and prefix.failed == 0
    full = evaluate.run_experiments(records, vocab, desk.arms, desk.gen.window_hours,
                                    CRITERION_4, jobs=1)
    for arm in desk.arms:
        folds = full[arm].report.folds[:desk.n_folds]
        assert prefix.aurocs[arm] == [f.auroc for f in folds]
        assert prefix.auprcs[arm] == [f.auprc for f in folds]


# -- the command -----------------------------------------------------------

def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_hgm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
