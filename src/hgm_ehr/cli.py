"""Command-line entry point: synth, train, eval and end-to-end run.

Runs are driven by an INI-style config file (flat key = value lines under
[data]/[experiment]/[hgm]/[cnn]/[output] sections, # comments allowed).
One master seed derives every sub-seed, so identical config + seed give
byte-identical outputs. Log verbosity comes from the HGM_EHR_LOG env var.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

from . import evaluate
from .checkpoint import load_container, save_container, write_json_atomic
from .cnn import CnnTrainConfig, load_cnn, save_cnn
from .evaluate import ARM_MODES, ExperimentConfig, FoldModels
from .hgm import HgmTrainConfig, load_params, save_params
from .ingest import (DEFAULT_WINDOWS, GenConfig, Vocabulary, fit_normalizer, generate_synthetic,
                     parse_records, synthetic_vocabulary, write_corpus)
from .sampler import SamplerConfig
from .seeds import derive_seed

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    source: str
    gen: GenConfig | None
    events_file: Path | None
    diagnoses_file: Path | None
    outcomes_file: Path | None
    vocabulary_file: Path | None
    windows: tuple
    arms: tuple
    k_folds: int
    seed: int
    out_dir: Path
    hgm: HgmTrainConfig
    cnn: CnnTrainConfig

    def validate(self) -> None:
        if self.source not in ("synthetic", "files"):
            raise ValueError(f"data source must be 'synthetic' or 'files', got {self.source!r}")
        if not self.windows:
            raise ValueError("at least one window is required")
        for w in self.windows:
            if w not in DEFAULT_WINDOWS:
                raise ValueError(f"window {w} not in supported set {DEFAULT_WINDOWS}")
            if w < self.cnn.kernel:
                raise ValueError(f"[cnn] kernel {self.cnn.kernel} is longer than window {w}h: "
                                 f"the convolution needs at least {self.cnn.kernel} hourly rows")
        if not self.arms:
            raise ValueError("at least one arm is required")
        for arm in self.arms:
            if arm not in ARM_MODES:
                raise ValueError(f"unknown arm {arm!r}; expected one of {sorted(ARM_MODES)}")
        if self.k_folds < 2:
            raise ValueError("folds must be >= 2")
        if self.source == "files":
            for name in ("events_file", "diagnoses_file", "outcomes_file"):
                if getattr(self, name) is None:
                    raise ValueError(f"files source requires [data] {name.removesuffix('_file')}")
        else:
            self.gen.validate()
        self.hgm.validate()
        self.cnn.validate()


_SECTION_KEYS = {
    "data": {"source", "events", "diagnoses", "outcomes", "vocabulary", "n_patients",
             "n_labs", "n_diagnoses", "prevalence", "signal"},
    "experiment": {"windows", "arms", "folds", "seed"},
    "hgm": {"d", "epochs", "learning_rate", "min_learning_rate", "activation",
            "context_diagnoses", "context_labs", "context_copatients", "negatives"},
    "cnn": {"filters", "kernel", "epochs", "batch_size", "learning_rate", "class_weighting"},
    "output": {"dir"},
}


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(path)

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ValueError(f"{path}: unknown config section [{section}]")
        unknown = set(parser[section]) - _SECTION_KEYS[section]
        if unknown:
            raise ValueError(f"{path}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")

    def get(section, key, fallback=None):
        return parser.get(section, key, fallback=fallback)

    windows = tuple(int(w) for w in get("experiment", "windows", "12").split(","))
    arms = tuple(a.strip() for a in get("experiment", "arms", "HGM,CNN,HGM_CNN").split(","))
    seed = int(get("experiment", "seed", "0"))

    source = get("data", "source", "synthetic").strip()
    gen = None
    if source == "synthetic":
        gen = GenConfig(
            n_patients=int(get("data", "n_patients", "200")),
            n_labs=int(get("data", "n_labs", "30")),
            n_diagnoses=int(get("data", "n_diagnoses", "50")),
            window_hours=max(windows),
            signal=float(get("data", "signal", "1.0")),
            prevalence=float(get("data", "prevalence", "0.3")),
        )

    def path_or_none(key):
        value = get("data", key)
        return Path(value) if value else None

    sampler = SamplerConfig(
        n_diagnoses=int(get("hgm", "context_diagnoses", "10")),
        n_labs=int(get("hgm", "context_labs", "10")),
        n_copatients=int(get("hgm", "context_copatients", "10")),
        negatives_per_positive=int(get("hgm", "negatives", "5")),
    )
    hgm_cfg = HgmTrainConfig(
        epochs=int(get("hgm", "epochs", "5")),
        learning_rate=float(get("hgm", "learning_rate", "0.025")),
        min_learning_rate=float(get("hgm", "min_learning_rate", "1e-4")),
        d=int(get("hgm", "d", "128")),
        activation=get("hgm", "activation", "tanh"),
        sampler=sampler,
    )
    cnn_cfg = CnnTrainConfig(
        n_filters=int(get("cnn", "filters", "32")),
        kernel=int(get("cnn", "kernel", "3")),
        learning_rate=float(get("cnn", "learning_rate", "0.01")),
        batch_size=int(get("cnn", "batch_size", "32")),
        epochs=int(get("cnn", "epochs", "10")),
        class_weighting=parser.getboolean("cnn", "class_weighting", fallback=True),
    )

    config = RunConfig(
        source=source,
        gen=gen,
        events_file=path_or_none("events"),
        diagnoses_file=path_or_none("diagnoses"),
        outcomes_file=path_or_none("outcomes"),
        vocabulary_file=path_or_none("vocabulary"),
        windows=windows,
        arms=arms,
        k_folds=int(get("experiment", "folds", "10")),
        seed=seed,
        out_dir=Path(get("output", "dir", "runs/out")),
        hgm=hgm_cfg,
        cnn=cnn_cfg,
    )
    config.validate()
    return config


def _load_corpus(config: RunConfig):
    if config.source == "synthetic":
        records = generate_synthetic(config.gen, derive_seed(config.seed, "synth"))
        vocab = synthetic_vocabulary(config.gen)
    else:
        vocab = Vocabulary.load(config.vocabulary_file) if config.vocabulary_file else None
        records, vocab = parse_records(
            config.events_file, config.diagnoses_file, config.outcomes_file, vocab
        )
    return records, vocab


def _experiment_config(config: RunConfig) -> ExperimentConfig:
    return ExperimentConfig(k_folds=config.k_folds, seed=config.seed,
                            hgm=config.hgm, cnn=config.cnn)


def _write_outcome(out_dir: Path, outcome) -> None:
    report = outcome.report
    stem = f"{report.arm}_{report.window_hours}h"
    write_json_atomic(out_dir / f"report_{stem}.json", report.to_dict())
    roc = evaluate.roc_points(outcome.scores, outcome.labels)
    pr = evaluate.pr_points(outcome.scores, outcome.labels)
    _write_curve(out_dir / f"roc_{stem}.csv", ("threshold", "fpr", "tpr"), roc)
    _write_curve(out_dir / f"pr_{stem}.csv", ("threshold", "recall", "precision"), pr)


def _write_curve(path: Path, header, points) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for point in points:
            writer.writerow([repr(v) for v in point])
    os.replace(tmp, path)


def _checkpoint_dir(config: RunConfig) -> Path:
    return config.out_dir / "checkpoints"


def _hgm_path(config: RunConfig, window: int, fold: int) -> Path:
    return _checkpoint_dir(config) / f"hgm_w{window}_f{fold}.json"


def _cnn_path(config: RunConfig, arm: str, window: int, fold: int) -> Path:
    return _checkpoint_dir(config) / f"cnn_{arm}_w{window}_f{fold}.json"


def _fingerprint_path(config: RunConfig) -> Path:
    return config.out_dir / "fold_fingerprints.json"


def _fold_fingerprint(config: RunConfig, window: int, fold_index: int, train, vocab) -> str:
    """sha256 over everything that decides a fold's checkpoints.

    That is the seed, the fold count, the window, the fold index, the
    training patients (sorted ids, then each one's events, diagnoses and
    outcome), the vocabulary and the hgm/cnn configs. The normalizer is a
    function of the training events, so eval can refit it and need not store it.
    """
    train = sorted(train, key=lambda r: r.patient_id)
    digest = hashlib.sha256(json.dumps({
        "seed": config.seed, "k_folds": config.k_folds, "window": window, "fold": fold_index,
        "train_ids": [r.patient_id for r in train],
        "labs": vocab.labs, "diagnoses": vocab.diagnoses,
        "hgm": asdict(config.hgm), "cnn": asdict(config.cnn),
    }, sort_keys=True).encode())
    for rec in train:
        digest.update(rec.events.tobytes())
        digest.update(repr((sorted(rec.diagnoses), bool(rec.died))).encode())
    return digest.hexdigest()


def _fold_key(window: int, fold_index: int) -> str:
    return f"w{window}_f{fold_index}"


def cmd_synth(config: RunConfig) -> int:
    if config.source != "synthetic":
        raise ValueError("synth requires [data] source = synthetic")
    records = generate_synthetic(config.gen, derive_seed(config.seed, "synth"))
    vocab = synthetic_vocabulary(config.gen)
    paths = write_corpus(records, vocab, config.out_dir)
    logger.info("wrote %d patients to %s", len(records), config.out_dir)
    print(f"synth: {len(records)} patients -> {paths['events']}")
    return 0


def cmd_train(config: RunConfig) -> int:
    records, vocab = _load_corpus(config)
    exp = _experiment_config(config)
    fingerprints = {}
    for window in config.windows:
        plan = evaluate.plan_folds(records, config.k_folds, config.seed, window)
        for fold_index, train, _test in plan:
            models = evaluate.train_fold(train, config.arms, window, vocab, exp, fold_index)
            if models.hgm_params is not None:
                save_params(models.hgm_params, _hgm_path(config, window, fold_index))
            for arm in config.arms:
                save_cnn(models.cnn_params[arm], _cnn_path(config, arm, window, fold_index))
            fingerprints[_fold_key(window, fold_index)] = _fold_fingerprint(
                config, window, fold_index, train, vocab)
            logger.info("trained window=%d fold=%d", window, fold_index)
    save_container(_fingerprint_path(config), kind="fingerprints",
                   payload={"folds": fingerprints})
    print(f"train: checkpoints in {_checkpoint_dir(config)}")
    return 0


def _load_fold(config: RunConfig, fingerprints: dict, train, arms, window: int, vocab,
               exp: ExperimentConfig, fold_index: int) -> FoldModels:
    """train_fold's stand-in for eval: the fold's checkpoints, if its fingerprint matches."""
    stored = fingerprints.get(_fold_key(window, fold_index))
    if stored != _fold_fingerprint(config, window, fold_index, train, vocab):
        problem = ("have no training fingerprint" if stored is None
                   else "were trained on other data or another config")
        raise ValueError(
            f"window {window}h fold {fold_index}: checkpoints "
            f"{_checkpoint_dir(config) / f'*_w{window}_f{fold_index}.json'} {problem} "
            f"(fingerprints: {_fingerprint_path(config)})")
    normalizer = fit_normalizer(train, window, vocab.n_labs)
    hgm_params = (load_params(_hgm_path(config, window, fold_index))
                  if any(ARM_MODES[arm].needs_embedding for arm in arms) else None)
    cnn_params = {arm: load_cnn(_cnn_path(config, arm, window, fold_index)) for arm in arms}
    return FoldModels(fold_index, window, normalizer, hgm_params, cnn_params)


def _report(config: RunConfig, command: str, jobs: int = 1, fit=None) -> int:
    """Cross-validate every window, writing reports and curves and printing a summary."""
    records, vocab = _load_corpus(config)
    exp = _experiment_config(config)
    for window in config.windows:
        outcomes = evaluate.run_experiments(records, vocab, config.arms, window, exp,
                                            jobs=jobs, fit=fit)
        for arm in config.arms:
            _write_outcome(config.out_dir, outcomes[arm])
            report = outcomes[arm].report
            print(f"{command}: {arm} {window}h AUROC {report.mean_auroc:.3f}"
                  f" +/- {report.std_auroc:.3f} AUPRC {report.mean_auprc:.3f}"
                  f" +/- {report.std_auprc:.3f}")
    return 0


def cmd_eval(config: RunConfig) -> int:
    fingerprint_path = _fingerprint_path(config)
    fingerprints = (load_container(fingerprint_path, kind="fingerprints")["folds"]
                    if fingerprint_path.exists() else {})
    return _report(config, "eval", fit=partial(_load_fold, config, fingerprints))


def _setup_logging() -> None:
    level_name = os.environ.get("HGM_EHR_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgm-ehr",
        description="Graph-embedding + CNN mortality prediction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "write a synthetic corpus as CSV files"),
        ("train", "train per-fold checkpoints"),
        ("eval", "evaluate existing checkpoints"),
        ("run", "end-to-end train + evaluate in memory"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the run config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        if name == "run":
            cmd.add_argument("--jobs", type=int, default=1, help="parallel fold workers")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, out_dir=Path(args.out))
        if args.command == "synth":
            return cmd_synth(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            return cmd_eval(config)
        return _report(config, "run", jobs=args.jobs)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        logger.debug("%s failed", args.command, exc_info=True)
        print(f"hgm-ehr: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
