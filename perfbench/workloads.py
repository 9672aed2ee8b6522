"""The benchmark's workloads and the hooks that trace them.

Every workload runs folds single-threaded (jobs=1) and reports per-fold
AUROC/AUPRC for each arm it runs. The program is always called through
module attributes (`evaluate.run_experiments`, `cli.main`), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hgm_ehr import cli, evaluate, ingest
from hgm_ehr.cnn import CnnTrainConfig
from hgm_ehr.hgm import HgmTrainConfig

from tracer import Hook


def _count_events(tracer, args, kwargs, result):
    records, _vocab = result
    tracer.add("ingest.events_parsed", sum(len(r.events) for r in records))


def _count_tested_edges(tracer, args, kwargs, graph):
    tracer.add("graph.tested_edges", int(graph.observed.sum()))


def _count_context_terms(tracer, args, kwargs, ctx):
    negatives = sum(len(group) for groups in (ctx.neg_diagnoses, ctx.neg_labs, ctx.neg_patients)
                    for group in groups) + len(ctx.neg_temporal)
    tracer.add("sampler.terms", ctx.n_positives() + negatives)


def _count_train_examples(tracer, args, kwargs, params):
    features = args[0] if args else kwargs["features"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    tracer.add("cnn.train_examples", len(features) * config.epochs)


HOOKS = (
    Hook("ingest", "hgm_ehr.ingest", "parse_records", probe=_count_events),
    Hook("ingest", "hgm_ehr.ingest", "fit_normalizer"),
    Hook("ingest", "hgm_ehr.ingest", "normalize_records"),
    Hook("ingest", "hgm_ehr.ingest", "bin_events"),
    Hook("graph", "hgm_ehr.graph", "build_graph", probe=_count_tested_edges),
    Hook("sampler", "hgm_ehr.sampler", "Sampler.sample_context", probe=_count_context_terms),
    Hook("sampler", "hgm_ehr.sampler", "Sampler.sample_negatives", count_only=True),
    Hook("hgm", "hgm_ehr.hgm", "train_hgm", epoch_value="hgm.last_epoch_loss"),
    Hook("cnn", "hgm_ehr.cnn", "build_features"),
    Hook("cnn", "hgm_ehr.cnn", "train_cnn", probe=_count_train_examples),
    Hook("cnn", "hgm_ehr.cnn", "predict"),
    Hook("checkpoint", "hgm_ehr.hgm", "save_params"),
    Hook("checkpoint", "hgm_ehr.cnn", "save_cnn"),
    Hook("checkpoint", "hgm_ehr.hgm", "load_params"),
    Hook("checkpoint", "hgm_ehr.cnn", "load_cnn"),
    Hook("evaluate", "hgm_ehr.evaluate", "train_fold"),
    Hook("evaluate", "hgm_ehr.evaluate", "score_fold"),
    Hook("evaluate", "hgm_ehr.evaluate", "assemble_outcome"),
    Hook("evaluate", "hgm_ehr.evaluate", "auroc"),
    Hook("evaluate", "hgm_ehr.evaluate", "auprc"),
    Hook("evaluate", "hgm_ehr.evaluate", "roc_points"),
    Hook("evaluate", "hgm_ehr.evaluate", "pr_points"),
    Hook("cli", "hgm_ehr.cli", "main"),
    Hook("cli", "hgm_ehr.cli", "cmd_train"),
    Hook("cli", "hgm_ehr.cli", "cmd_eval"),
)


@dataclass
class RepResult:
    """Per-fold scores of one repetition, by arm, in fold order."""

    aurocs: dict = field(default_factory=dict)
    auprcs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


# Functions of evaluate that run_experiments calls by module-global name,
# and the benchmark phase each call is timed under.
PHASE_OF = {"train_fold": "train", "score_fold": "score", "assemble_outcome": "score"}


@contextlib.contextmanager
def fold_prefix(tracer, n_folds):
    """Make evaluate.run_experiments run only its first n_folds folds, phases timed.

    kfold_split is wrapped to return the first n_folds folds of the full
    split, so the folds and their seeds are those of the full experiment.
    train_fold/score_fold/assemble_outcome are wrapped in tracer phases,
    outside any tracer hooks already installed. The module's attributes are
    restored on exit.
    """
    split = evaluate.kfold_split

    def first_folds(*args, **kwargs):
        return split(*args, **kwargs)[:n_folds]

    patches = {"kfold_split": first_folds}
    patches.update({name: tracer.timed(phase, getattr(evaluate, name))
                    for name, phase in PHASE_OF.items()})
    saved = {name: getattr(evaluate, name) for name in patches}
    for name, fn in patches.items():
        setattr(evaluate, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(evaluate, name, fn)


@dataclass(frozen=True)
class InProcessWorkload:
    """The first n_folds folds of evaluate.run_experiments on a synthetic corpus in memory.

    setup_reps is how many times a --trace 0 run times the set-up, taking
    up to setup_per_rep samples before each repetition (see run.run_untraced).
    """

    name: str
    gen: ingest.GenConfig
    arms: tuple
    experiment: evaluate.ExperimentConfig
    n_folds: int
    setup_reps: int
    setup_per_rep: int

    def setup(self, seed: int, workdir: Path):
        records = ingest.generate_synthetic(self.gen, seed)
        return records, ingest.synthetic_vocabulary(self.gen)

    def config(self, seed: int) -> evaluate.ExperimentConfig:
        return evaluate.ExperimentConfig(k_folds=self.experiment.k_folds, seed=seed,
                                         hgm=self.experiment.hgm, cnn=self.experiment.cnn)

    def run(self, state, seed: int, tracer, rep_dir: Path) -> RepResult:
        records, vocab = state
        result = RepResult(attempted=self.n_folds, failed=self.n_folds)
        try:
            with fold_prefix(tracer, self.n_folds):
                outcomes = evaluate.run_experiments(records, vocab, self.arms,
                                                    self.gen.window_hours, self.config(seed),
                                                    jobs=1)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result.problems.append("the fold plan raised")
            return result
        for arm, outcome in outcomes.items():
            result.aurocs[arm] = [f.auroc for f in outcome.report.folds]
            result.auprcs[arm] = [f.auprc for f in outcome.report.folds]
        result.failed = self.n_folds - min(len(v) for v in result.aurocs.values())
        if result.failed:
            result.problems.append(f"{result.failed} fold(s) skipped (single-class test set)")
        return result


_FILES_CONFIG = """\
[data]
source = files
events = {corpus}/events.csv
diagnoses = {corpus}/diagnoses.csv
outcomes = {corpus}/outcomes.csv
vocabulary = {corpus}/vocabulary.json

[experiment]
windows = {window}
arms = {arms}
folds = {folds}
seed = {seed}

[hgm]
d = {d}
epochs = {hgm_epochs}
learning_rate = 0.025

[cnn]
filters = {filters}
kernel = 3
epochs = {cnn_epochs}
learning_rate = 0.05
"""


@dataclass(frozen=True)
class FilesWorkload:
    """CSV corpus on disk, `hgm-ehr train` then `hgm-ehr eval`, run in-process.

    setup_reps and setup_per_rep are as for InProcessWorkload.
    """

    name: str
    gen: ingest.GenConfig
    arms: tuple
    folds: int
    d: int
    hgm_epochs: int
    filters: int
    cnn_epochs: int
    setup_reps: int
    setup_per_rep: int

    def setup(self, seed: int, workdir: Path):
        corpus = workdir / "corpus"
        records = ingest.generate_synthetic(self.gen, seed)
        ingest.write_corpus(records, ingest.synthetic_vocabulary(self.gen), corpus)
        config = workdir / "run.ini"
        config.write_text(_FILES_CONFIG.format(
            corpus=corpus, window=self.gen.window_hours, arms=",".join(self.arms),
            folds=self.folds, seed=seed, d=self.d, hgm_epochs=self.hgm_epochs,
            filters=self.filters, cnn_epochs=self.cnn_epochs), encoding="utf-8")
        return config

    def run(self, config: Path, seed: int, tracer, rep_dir: Path) -> RepResult:
        result = RepResult(attempted=self.folds, failed=self.folds)
        common = ["--config", str(config), "--out", str(rep_dir)]
        # cli.main prints a status line; keep stdout for the benchmark's result.
        with contextlib.redirect_stdout(sys.stderr):
            with tracer.phase("train"):
                train_rc = cli.main(["train", *common])
            checkpoints = sorted((rep_dir / "checkpoints").glob("*.json"))
            tracer.add("checkpoint.bytes_written", sum(p.stat().st_size for p in checkpoints))
            with tracer.phase("score"):
                eval_rc = cli.main(["eval", *common])
        if train_rc != 0 or eval_rc != 0:
            result.problems.append(f"cli exit codes: train {train_rc}, eval {eval_rc}")
            return result
        outcomes = {}
        for arm in self.arms:
            report = rep_dir / f"report_{arm}_{self.gen.window_hours}h.json"
            if not report.exists():
                result.problems.append(f"missing {report.name}")
                return result
            outcomes[arm] = json.loads(report.read_text(encoding="utf-8"))
        for arm, report in outcomes.items():
            result.aurocs[arm] = [f["auroc"] for f in report["folds"]]
            result.auprcs[arm] = [f["auprc"] for f in report["folds"]]
        result.failed = self.folds - min(len(v) for v in result.aurocs.values())
        if result.failed:
            result.problems.append(f"{result.failed} fold(s) without a report entry")
        return result


# Criterion-4 desk experiment (tests/test_acceptance.py), minus its seeds,
# which come from --seed.
DESK_EXPERIMENT = evaluate.ExperimentConfig(
    k_folds=10,
    hgm=HgmTrainConfig(epochs=2, learning_rate=0.025, d=16),
    cnn=CnnTrainConfig(n_filters=16, kernel=3, epochs=30, batch_size=32, learning_rate=0.05),
)

WORKLOADS = {
    # train_hgm is ~88% of each fold: sampling plus loss/grad at d = 16.
    "desk_hgm": InProcessWorkload(
        name="desk_hgm",
        gen=ingest.GenConfig(n_patients=500, n_labs=30, n_diagnoses=50, window_hours=12),
        arms=("HGM", "CNN", "HGM_CNN"),
        experiment=DESK_EXPERIMENT,
        n_folds=1,
        setup_reps=16,
        setup_per_rep=8,
    ),
    # HGM bypassed: normalizer, per-record binning, features and CNN training.
    "raw_cnn_48h": InProcessWorkload(
        name="raw_cnn_48h",
        gen=ingest.GenConfig(n_patients=1000, n_labs=30, n_diagnoses=50, window_hours=48),
        arms=("CNN",),
        experiment=DESK_EXPERIMENT,
        n_folds=1,
        setup_reps=5,
        setup_per_rep=1,
    ),
    # Paper's embedding width on the CSV + checkpoint path of the CLI.
    "files_d128_6h": FilesWorkload(
        name="files_d128_6h",
        gen=ingest.GenConfig(n_patients=300, n_labs=30, n_diagnoses=50, window_hours=6),
        arms=("HGM_CNN",),
        folds=2,
        d=128,
        hgm_epochs=1,
        filters=32,
        cnn_epochs=30,
        setup_reps=16,
        setup_per_rep=4,
    ),
}
