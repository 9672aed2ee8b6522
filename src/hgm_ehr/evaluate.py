"""Cross-validated evaluation: AUROC/AUPRC per arm and window.

Folds partition patients, never samples, and everything fitted (lab
normalization, graph embeddings, classifier) sees training patients only.
Per-fold seeds derive from the experiment seed so serial and parallel
execution produce identical reports.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .cnn import CnnTrainConfig, FeatureMode, build_features, predict, train_cnn
from .graph import build_graph
from .hgm import HgmParams, HgmTrainConfig, train_hgm
from .ingest import Vocabulary, bin_events, check_records, fit_normalizer
from .seeds import derive_seed

logger = logging.getLogger(__name__)

ARMS = tuple(mode.value for mode in FeatureMode)


@dataclass(frozen=True)
class FoldReport:
    fold: int
    auroc: float
    auprc: float
    n_test: int
    n_pos: int


@dataclass
class ExperimentReport:
    arm: str
    window: int
    folds: list[FoldReport]
    mean_auroc: float
    std_auroc: float
    mean_auprc: float
    std_auprc: float


@dataclass
class ArmOutcome:
    """Report plus pooled test scores (fold order) for curve export."""

    report: ExperimentReport
    scores: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class ExperimentConfig:
    k_folds: int = 10
    seed: int = 0
    hgm: HgmTrainConfig = field(default_factory=HgmTrainConfig)
    cnn: CnnTrainConfig = field(default_factory=CnnTrainConfig)


def kfold_split(patient_ids, k: int, seed: int) -> list[list[str]]:
    """Seeded patient-level partition into k test sets with sizes differing by <= 1."""
    ids = list(patient_ids)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(ids):
        raise ValueError(f"cannot split {len(ids)} patients into {k} folds")
    order = np.random.default_rng(seed).permutation(len(ids))
    return [[ids[i] for i in chunk] for chunk in np.array_split(order, k)]


def _checked(scores, labels):
    """Scores (finite floats) and binary labels as arrays, with (n_pos, n_neg)."""
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != labels.size:
        raise ValueError("labels must be binary")
    return scores, labels, n_pos, n_neg


def _tie_runs(scores, labels):
    """Stable descending sort of scores, cut into runs of equal scores.

    Returns (order, starts, ends, cum_pos): run r covers sorted positions
    [starts[r], ends[r]), and cum_pos[i] counts the positives at positions <= i.
    """
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    # a run ends where the next score differs, and at the last score
    ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], ordered.size > 0)) + 1
    return order, np.append(0, ends)[:-1], ends, np.cumsum(labels[order] == 1)


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC: (concordant + 0.5 * tied) / (n_pos * n_neg)."""
    scores, labels, n_pos, n_neg = _checked(scores, labels)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC requires both classes")
    order, starts, ends, _ = _tie_runs(scores, labels)
    # a run's ascending positions are [n - end, n - start); average rank, 1-based
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((2 * scores.size - starts - ends - 1) / 2.0 + 1.0, ends - starts)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(scores, labels) -> float:
    """Average precision: mean of precision at each positive's rank.

    Scores sort descending with ties kept in input order (stable sort).
    """
    scores, labels, n_pos, _ = _checked(scores, labels)
    if n_pos == 0:
        raise ValueError("AUPRC requires at least one positive")
    order, _, _, cum_pos = _tie_runs(scores, labels)
    precision = cum_pos / np.arange(1, scores.size + 1)
    return float(precision[labels[order] == 1].mean())


def roc_points(scores, labels):
    """(threshold, fpr, tpr) at every distinct score, descending."""
    scores, labels, n_pos, n_neg = _checked(scores, labels)
    order, starts, ends, cum_pos = _tie_runs(scores, labels)
    tp = cum_pos[ends - 1]
    # a run's threshold is its first score: 0.0 and -0.0 tie, and the first is kept
    return [(float("inf"), 0.0, 0.0)] + list(zip(
        scores[order[starts]].tolist(), ((ends - tp) / max(n_neg, 1)).tolist(),
        (tp / max(n_pos, 1)).tolist()))


def pr_points(scores, labels):
    """(threshold, recall, precision) at every distinct score, descending."""
    scores, labels, n_pos, _ = _checked(scores, labels)
    order, starts, ends, cum_pos = _tie_runs(scores, labels)
    tp = cum_pos[ends - 1]
    return list(zip(scores[order[starts]].tolist(), (tp / max(n_pos, 1)).tolist(),
                    (tp / ends).tolist()))


@dataclass
class FoldModels:
    """Everything fitted on one training fold."""

    window_hours: int
    normalizer: object
    hgm_params: HgmParams | None
    cnn_params: dict  # arm -> CnnParams


def train_fold(train_records, arms, window_hours: int, vocab: Vocabulary,
               config: ExperimentConfig, fold_index: int) -> FoldModels:
    """Fit normalizer, embeddings (when any arm needs them) and per-arm CNNs.

    The training split is z-scored and binned in one pass; the graph and
    every arm's features read that one tensor.
    """
    normalizer = fit_normalizer(train_records, window_hours, vocab.n_labs)
    binned = bin_events(train_records, window_hours, normalizer)

    hgm_params = None
    if any(FeatureMode(arm).needs_embedding for arm in arms):
        graph = build_graph(train_records, vocab, binned)
        hgm_cfg = replace(config.hgm, seed=derive_seed(config.seed, "hgm", fold_index, window_hours))
        try:
            hgm_params = train_hgm(graph, hgm_cfg)
        except FloatingPointError as exc:
            raise FloatingPointError(f"window {window_hours}h fold {fold_index}: {exc}") from exc

    labels = np.array([int(r.died) for r in train_records])
    cnn_params = {}
    for arm in arms:
        cnn_cfg = replace(config.cnn, seed=derive_seed(config.seed, f"cnn:{arm}", fold_index, window_hours))
        try:
            cnn_params[arm] = train_cnn(build_features(binned, FeatureMode(arm), hgm_params),
                                        cnn_cfg, labels)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"window {window_hours}h fold {fold_index}, arm {arm}: {exc}") from exc
    return FoldModels(window_hours, normalizer, hgm_params, cnn_params)


def score_fold(models: FoldModels, test_records, arms) -> dict:
    """Held-out mortality scores per arm, from one pass that z-scores and bins the split."""
    binned = bin_events(test_records, models.window_hours, models.normalizer)
    out = {}
    for arm in arms:
        params = models.cnn_params[arm]
        out[arm] = np.array([predict(params, x)
                             for x in build_features(binned, FeatureMode(arm), models.hgm_params)])
    return out


def plan_folds(records, k_folds: int, seed: int, window_hours: int) -> list:
    """The seeded patient-level split as (fold_index, train, test) record lists.

    Folds whose test set is single-class cannot be scored, so they are
    skipped with a warning and never trained. A scored fold whose training
    split is single-class cannot train a classifier: that raises, naming
    the window and fold, before anything is trained.
    """
    records_by_id = {r.patient_id: r for r in records}
    if len(records_by_id) != len(records):
        raise ValueError("duplicate patient ids in records")
    ids = [r.patient_id for r in records]
    plan = []
    for fold_index, test_ids in enumerate(
            kfold_split(ids, k_folds, derive_seed(seed, "kfold", window=window_hours))):
        test = [records_by_id[i] for i in test_ids]
        if len({int(r.died) for r in test}) < 2:
            logger.warning("fold %d has a single-class test set; skipping", fold_index)
            continue
        test_set = set(test_ids)
        train = [records_by_id[i] for i in ids if i not in test_set]
        n_died = sum(r.died for r in train)
        if n_died in (0, len(train)):
            raise ValueError(
                f"window {window_hours}h fold {fold_index}: the training split is single-class "
                f"({n_died} of {len(train)} patients died), so no classifier can be trained")
        plan.append((fold_index, train, test))
    if not plan:
        raise ValueError("no evaluable folds (all test sets single-class)")
    return plan


def _run_fold(fold, arms, window_hours: int, vocab: Vocabulary, config: ExperimentConfig, fit):
    fold_index, train, test = fold
    # train_fold is looked up per call, so a patched evaluate.train_fold is the one run
    models = (fit or train_fold)(train, arms, window_hours, vocab, config, fold_index)
    scores = score_fold(models, test, arms)
    labels = np.array([int(r.died) for r in test])
    return fold_index, scores, labels


# A pool worker's fold plan and run settings, set once by _init_worker.
_worker_state = None


def _init_worker(plan, *settings):
    global _worker_state
    _worker_state = ({fold[0]: fold for fold in plan}, *settings)


def _worker_fold(fold_index: int):
    folds, *settings = _worker_state
    return _run_fold(folds[fold_index], *settings)


def run_experiments(records, vocab: Vocabulary, arms, window_hours: int,
                    config: ExperimentConfig, jobs: int = 1, fit=None) -> dict:
    """Evaluate several arms over one shared k-fold split.

    Embeddings are trained once per fold and reused by every arm that needs
    them. Folds whose test set is single-class are skipped with a warning.
    A bad record is refused before any fold trains. Returns {arm: ArmOutcome}.

    fit gives a fold's models: it is called as train_fold is, with
    (train_records, arms, window_hours, vocab, config, fold_index), and
    returns a FoldModels. None trains them with train_fold; eval passes a
    loader of checkpoints instead. With jobs > 1 fit is sent to every worker,
    so it must pickle: a module-level function or a functools.partial of one.
    """
    for arm in arms:
        if arm not in ARMS:
            raise ValueError(f"unknown arm {arm!r}; expected one of {sorted(ARMS)}")
    check_records(records, vocab.n_labs)
    plan = plan_folds(records, config.k_folds, config.seed, window_hours)
    settings = (tuple(arms), window_hours, vocab, config, fit)

    if jobs > 1:
        # Each worker receives the records once; a task is only its fold index.
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(plan, *settings)) as pool:
            results = list(pool.map(_worker_fold, [fold[0] for fold in plan]))
    else:
        results = [_run_fold(fold, *settings) for fold in plan]
    results.sort(key=lambda r: r[0])

    return {
        arm: assemble_outcome(arm, window_hours, [(f, s[arm], y) for f, s, y in results])
        for arm in arms
    }


def assemble_outcome(arm: str, window_hours: int, fold_results) -> ArmOutcome:
    """Aggregate per-fold (fold_index, scores, labels) into an ArmOutcome; a fold
    whose scores or labels the metrics refuse raises, naming window, fold and arm."""
    fold_reports = []
    pooled_scores = []
    pooled_labels = []
    for fold_index, scores, labels in fold_results:
        try:
            fold_auroc, fold_auprc = auroc(scores, labels), auprc(scores, labels)
        except ValueError as exc:
            raise ValueError(f"window {window_hours}h fold {fold_index}, arm {arm}: {exc}") from exc
        fold_reports.append(FoldReport(
            fold=fold_index,
            auroc=fold_auroc,
            auprc=fold_auprc,
            n_test=int(np.asarray(labels).size),
            n_pos=int(np.asarray(labels).sum()),
        ))
        pooled_scores.append(np.asarray(scores, dtype=float))
        pooled_labels.append(np.asarray(labels))
    aurocs = np.array([f.auroc for f in fold_reports])
    auprcs = np.array([f.auprc for f in fold_reports])
    ddof = 1 if len(fold_reports) > 1 else 0
    report = ExperimentReport(
        arm=arm,
        window=window_hours,
        folds=fold_reports,
        mean_auroc=float(aurocs.mean()),
        std_auroc=float(aurocs.std(ddof=ddof)),
        mean_auprc=float(auprcs.mean()),
        std_auprc=float(auprcs.std(ddof=ddof)),
    )
    return ArmOutcome(
        report=report,
        scores=np.concatenate(pooled_scores),
        labels=np.concatenate(pooled_labels),
    )

