"""Command-line entry point: synth, train, eval and end-to-end run.

Runs are driven by an INI-style config file (flat key = value lines under
[data]/[experiment]/[hgm]/[cnn]/[output] sections, # comments allowed).
CONFIG_KEYS lists every key with the config field it sets and how its value
is parsed; a key left out keeps that field's dataclass default. One master
seed derives every sub-seed, so identical config + seed give byte-identical
outputs. Log verbosity comes from the HGM_EHR_LOG env var.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import os
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

from . import evaluate
from .checkpoint import load_container, save_container, write_json_atomic, write_text_atomic
from .cnn import CnnTrainConfig, FeatureMode, load_cnn, save_cnn
from .evaluate import ARMS, ExperimentConfig, FoldModels
from .hgm import HgmTrainConfig, load_params, save_params
from .ingest import (DEFAULT_WINDOWS, GenConfig, Vocabulary, fit_normalizer, generate_synthetic,
                     parse_records, synthetic_vocabulary, write_corpus)
from .sampler import SamplerConfig
from .seeds import derive_seed

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    source: str = "synthetic"
    gen: GenConfig | None = None
    events_file: Path | None = None
    diagnoses_file: Path | None = None
    outcomes_file: Path | None = None
    vocabulary_file: Path | None = None
    windows: tuple = (12,)
    arms: tuple = ARMS
    out_dir: Path = Path("runs/out")
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def validate(self) -> None:
        if self.source not in ("synthetic", "files"):
            raise ValueError(f"data source must be 'synthetic' or 'files', got {self.source!r}")
        kernel = self.experiment.cnn.kernel
        if not self.windows:
            raise ValueError("at least one window is required")
        for w in self.windows:
            if w not in DEFAULT_WINDOWS:
                raise ValueError(f"window {w} not in supported set {DEFAULT_WINDOWS}")
            if self.windows.count(w) > 1:
                raise ValueError(f"window {w} is listed more than once")
            if w < kernel:
                raise ValueError(f"[cnn] kernel {kernel} is longer than window {w}h: "
                                 f"the convolution needs at least {kernel} hourly rows")
        if not self.arms:
            raise ValueError("at least one arm is required")
        for arm in self.arms:
            if arm not in ARMS:
                raise ValueError(f"unknown arm {arm!r}; expected one of {sorted(ARMS)}")
            if self.arms.count(arm) > 1:
                raise ValueError(f"arm {arm!r} is listed more than once")
        if self.source == "files":
            for name in ("events_file", "diagnoses_file", "outcomes_file"):
                if getattr(self, name) is None:
                    raise ValueError(f"files source requires [data] {name.removesuffix('_file')}")


def _path(text: str) -> Path | None:
    return Path(text) if text else None


def _listed(parse):
    """A parser of comma-separated lists: each stripped item through parse."""
    return lambda text: tuple(parse(item.strip()) for item in text.split(","))


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"Not a boolean: {text}")
    return states[text.lower()]


# Every INI setting: (section, key) -> (config class, field, parser). A key
# left out keeps the field's dataclass default.
CONFIG_KEYS = {
    ("data", "source"): (RunConfig, "source", str),
    ("data", "events"): (RunConfig, "events_file", _path),
    ("data", "diagnoses"): (RunConfig, "diagnoses_file", _path),
    ("data", "outcomes"): (RunConfig, "outcomes_file", _path),
    ("data", "vocabulary"): (RunConfig, "vocabulary_file", _path),
    ("data", "n_patients"): (GenConfig, "n_patients", int),
    ("data", "n_labs"): (GenConfig, "n_labs", int),
    ("data", "n_diagnoses"): (GenConfig, "n_diagnoses", int),
    ("data", "prevalence"): (GenConfig, "prevalence", float),
    ("data", "signal"): (GenConfig, "signal", float),
    ("experiment", "windows"): (RunConfig, "windows", _listed(int)),
    ("experiment", "arms"): (RunConfig, "arms", _listed(str)),
    ("experiment", "folds"): (ExperimentConfig, "k_folds", int),
    ("experiment", "seed"): (ExperimentConfig, "seed", int),
    ("hgm", "d"): (HgmTrainConfig, "d", int),
    ("hgm", "epochs"): (HgmTrainConfig, "epochs", int),
    ("hgm", "learning_rate"): (HgmTrainConfig, "learning_rate", float),
    ("hgm", "min_learning_rate"): (HgmTrainConfig, "min_learning_rate", float),
    ("hgm", "activation"): (HgmTrainConfig, "activation", str),
    ("hgm", "context_diagnoses"): (SamplerConfig, "n_diagnoses", int),
    ("hgm", "context_labs"): (SamplerConfig, "n_labs", int),
    ("hgm", "context_copatients"): (SamplerConfig, "n_copatients", int),
    ("hgm", "negatives"): (SamplerConfig, "negatives_per_positive", int),
    ("cnn", "filters"): (CnnTrainConfig, "n_filters", int),
    ("cnn", "kernel"): (CnnTrainConfig, "kernel", int),
    ("cnn", "epochs"): (CnnTrainConfig, "epochs", int),
    ("cnn", "batch_size"): (CnnTrainConfig, "batch_size", int),
    ("cnn", "learning_rate"): (CnnTrainConfig, "learning_rate", float),
    ("cnn", "class_weighting"): (CnnTrainConfig, "class_weighting", _boolean),
    ("output", "dir"): (RunConfig, "out_dir", Path),
}

# The synthetic corpus shape has no dataclass default; its window is the longest one run.
_GEN_DEFAULTS = dict(n_patients=200, n_labs=30, n_diagnoses=50)
# Each config class but RunConfig, and the one section whose keys set its fields.
_SECTION_OF = {target: section for (section, _), (target, _, _) in CONFIG_KEYS.items()
               if target is not RunConfig}
# The key of each field whose key has another name, such as [cnn] filters for n_filters.
_KEY_OF = {(target, name): key for (_, key), (target, name, _) in CONFIG_KEYS.items()
           if key != name}


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with path.open() as file:  # parser.read would skip a directory or an unreadable file
        parser.read_file(file)

    values = defaultdict(dict)
    for section in parser.sections():
        if section not in {known for known, _ in CONFIG_KEYS}:
            raise ValueError(f"{path}: unknown config section [{section}]")
        unknown = sorted(key for key in parser[section] if (section, key) not in CONFIG_KEYS)
        if unknown:
            raise ValueError(f"{path}: unknown key(s) in [{section}]: {', '.join(unknown)}")
        for key, text in parser[section].items():
            target, name, parse = CONFIG_KEYS[section, key]
            try:
                values[target][name] = parse(text)
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None

    def build(target, **kwargs):
        try:
            return target(**kwargs)
        except ValueError as exc:  # a value out of range, named with its file, section and key
            name, _, rest = str(exc).partition(" ")
            message = f"{_KEY_OF[target, name]} {rest}" if (target, name) in _KEY_OF else exc
            raise ValueError(f"{path}: [{_SECTION_OF[target]}] {message}") from None

    hgm = build(HgmTrainConfig, sampler=build(SamplerConfig, **values[SamplerConfig]),
                **values[HgmTrainConfig])
    cnn = build(CnnTrainConfig, **values[CnnTrainConfig])
    experiment = build(ExperimentConfig, hgm=hgm, cnn=cnn, **values[ExperimentConfig])
    config = RunConfig(experiment=experiment, **values[RunConfig])
    # Each source refuses the [data] keys only the other one reads.
    data = parser["data"] if parser.has_section("data") else {}
    unread, kind = [], ""
    if config.source == "synthetic":
        unread = [key for key in data if CONFIG_KEYS["data", key][1].endswith("_file")]
        kind = "input-file"
    elif config.source == "files":
        unread = [key for key in data if CONFIG_KEYS["data", key][0] is GenConfig]
        kind = "synthetic-corpus"
    if unread:
        raise ValueError(f"{path}: [data] {', '.join(unread)}: {kind} key(s), "
                         f"not read under source = {config.source}")
    config.validate()
    if config.source == "synthetic":
        config.gen = build(GenConfig, **{**_GEN_DEFAULTS, **values[GenConfig]},
                           window_hours=max(config.windows))
    return config


def _load_corpus(config: RunConfig):
    if config.source == "synthetic":
        records = generate_synthetic(config.gen, derive_seed(config.experiment.seed, "synth"))
        vocab = synthetic_vocabulary(config.gen)
    else:
        vocab = Vocabulary.load(config.vocabulary_file) if config.vocabulary_file else None
        records, vocab = parse_records(
            config.events_file, config.diagnoses_file, config.outcomes_file, vocab
        )
    return records, vocab


def _write_outcome(out_dir: Path, outcome) -> None:
    report = outcome.report
    stem = f"{report.arm}_{report.window}h"
    write_json_atomic(out_dir / f"report_{stem}.json", asdict(report))
    roc = evaluate.roc_points(outcome.scores, outcome.labels)
    pr = evaluate.pr_points(outcome.scores, outcome.labels)
    _write_curve(out_dir / f"roc_{stem}.csv", ("threshold", "fpr", "tpr"), roc)
    _write_curve(out_dir / f"pr_{stem}.csv", ("threshold", "recall", "precision"), pr)


def _write_curve(path: Path, header, points) -> None:
    # CSV as the csv module writes it: CRLF line ends; no name or float repr needs quoting
    rows = [header] + [[repr(v) for v in point] for point in points]
    write_text_atomic(path, "".join(",".join(row) + "\r\n" for row in rows))


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

    That is the experiment config (seed, fold count, hgm and cnn configs),
    the window, the fold index, the training patients (sorted ids, then each
    one's events, diagnoses and outcome) and the vocabulary. The normalizer is
    a function of the training events, so eval can refit it and need not store it.
    """
    train = sorted(train, key=lambda r: r.patient_id)
    digest = hashlib.sha256(json.dumps({
        **asdict(config.experiment), "window": window, "fold": fold_index,
        "train_ids": [r.patient_id for r in train],
        "labs": vocab.labs, "diagnoses": vocab.diagnoses,
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
    records, vocab = _load_corpus(config)
    paths = write_corpus(records, vocab, config.out_dir)
    logger.info("wrote %d patients to %s", len(records), config.out_dir)
    print(f"synth: {len(records)} patients -> {paths['events']}")
    return 0


def cmd_train(config: RunConfig) -> int:
    records, vocab = _load_corpus(config)
    exp = config.experiment
    fingerprints = {}
    for window in config.windows:
        plan = evaluate.plan_folds(records, exp.k_folds, exp.seed, window)
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
                  if any(FeatureMode(arm).needs_embedding for arm in arms) else None)
    cnn_params = {arm: load_cnn(_cnn_path(config, arm, window, fold_index)) for arm in arms}
    return FoldModels(window, normalizer, hgm_params, cnn_params)


def _report(config: RunConfig, command: str, jobs: int = 1, fit=None) -> int:
    """Cross-validate every window, writing reports and curves and printing a summary."""
    records, vocab = _load_corpus(config)
    for window in config.windows:
        outcomes = evaluate.run_experiments(records, vocab, config.arms, window, config.experiment,
                                            jobs=jobs, fit=fit)
        for arm in config.arms:
            _write_outcome(config.out_dir, outcomes[arm])
            report = outcomes[arm].report
            print(f"{command}: {arm} {window}h AUROC {report.mean_auroc:.3f}"
                  f" +/- {report.std_auroc:.3f} AUPRC {report.mean_auprc:.3f}"
                  f" +/- {report.std_auprc:.3f}")
    return 0


def cmd_eval(config: RunConfig) -> int:
    path = _fingerprint_path(config)
    fingerprints = load_container(path, kind="fingerprints").get("folds") if path.exists() else {}
    if not isinstance(fingerprints, dict):
        raise ValueError(f"{path}: 'folds' is missing or not an object")
    for key, fingerprint in fingerprints.items():
        if not isinstance(fingerprint, str):
            raise ValueError(f"{path}: fingerprint {key!r} is not a string")
    return _report(config, "eval", fit=partial(_load_fold, config, fingerprints))


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _setup_logging() -> None:
    """Set the root logger to HGM_EHR_LOG's level, on every call; a stderr handler is
    added only when the root logger has none, so handlers installed elsewhere stay."""
    level_name = os.environ.get("HGM_EHR_LOG", "warning")
    if level_name.lower() not in _LOG_LEVELS:
        raise ValueError(f"HGM_EHR_LOG must be one of {', '.join(_LOG_LEVELS)}, got {level_name!r}")
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(getattr(logging, level_name.upper()))


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


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
            cmd.add_argument("--jobs", type=positive_int, default=1,
                             help="parallel fold workers (>= 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        config = load_run_config(args.config)
        if args.seed is not None:
            config = replace(config, experiment=replace(config.experiment, seed=args.seed))
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
