"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The pipeline criteria
(three-arm ordering, no-signal calibration) dominate the runtime.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from hgm_ehr import cli
from hgm_ehr.cnn import CnnParams, CnnTrainConfig, FeatureMode, backward, build_features, \
    ce_loss, forward
from hgm_ehr.evaluate import ExperimentConfig, auprc, auroc, run_experiments
from hgm_ehr.hgm import HgmTrainConfig, context_scores, init_params, ns_grad, ns_loss, train_hgm
from hgm_ehr.ingest import (GenConfig, bin_events, generate_synthetic, parse_records,
                            synthetic_vocabulary)
from hgm_ehr.sampler import Sampler, SamplerConfig

from conftest import binned_graph, exact_loss_fd_step, toy_records, toy_vocab, total_exact_loss
from test_eval import rank_enumeration_auprc
from test_hgm import PARAM_FIELDS, random_instance, random_params

# Pinned desk-scale experiment configuration (criteria 4 and 5).
DESK_GEN = dict(n_patients=500, n_labs=30, n_diagnoses=50, window_hours=12)
DESK_GEN_SEED = 20
DESK_EXPERIMENT = ExperimentConfig(
    k_folds=10,
    seed=101,
    hgm=HgmTrainConfig(epochs=2, learning_rate=0.025, d=16),
    cnn=CnnTrainConfig(n_filters=16, kernel=3, epochs=30, batch_size=32, learning_rate=0.05),
)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gradient_fidelity():
    start = time.perf_counter()
    worst = 0.0
    h = 1e-5

    def rel_err(analytic, fd):
        return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3)

    for seed in range(20):
        params, graph, ctx = random_instance(
            1000 + seed, activation=("tanh", "sigmoid", "relu")[seed % 3])
        grads = ns_grad(params, graph, ctx)
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            analytic = getattr(grads, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = ns_loss(params, graph, ctx)
                arr[idx] = orig - h
                down = ns_loss(params, graph, ctx)
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                if max(abs(fd), abs(analytic[idx])) > 1e-7:
                    worst = max(worst, rel_err(analytic[idx], fd))

    rng = np.random.default_rng(2000)
    for seed in range(20):
        params = CnnParams(
            filters=rng.normal(0, 0.6, (3, 2, 4)),
            conv_bias=rng.normal(0, 0.3, 3),
            dense_w=rng.normal(0, 0.6, (3, 2)),
            dense_b=rng.normal(0, 0.3, 2),
        )
        x, label = rng.normal(size=(6, 4)), bool(seed % 2)
        grads = backward(params, x, label)
        for name in ("filters", "conv_bias", "dense_w", "dense_b"):
            arr = getattr(params, name)
            analytic = getattr(grads, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = ce_loss(forward(params, x), label)
                arr[idx] = orig - h
                down = ce_loss(forward(params, x), label)
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                if max(abs(fd), abs(analytic[idx])) > 1e-7:
                    worst = max(worst, rel_err(analytic[idx], fd))

    elapsed = time.perf_counter() - start
    report(1, worst < 1e-4 and elapsed < 30.0,
           f"20+20 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst_auroc = 0.0
    worst_auprc = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[int(rng.integers(0, n))] = 1 - labels[0]
        scores = rng.normal(size=n)
        if trial % 2 == 0:
            scores = np.round(scores, 1)  # force ties
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        brute = float(((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size))
        worst_auroc = max(worst_auroc, abs(auroc(scores, labels) - brute))
        worst_auprc = max(worst_auprc, abs(
            auprc(scores, labels) - rank_enumeration_auprc(scores.tolist(), labels.tolist())))
    elapsed = time.perf_counter() - start
    report(2, worst_auroc <= 1e-12 and worst_auprc <= 1e-12 and elapsed < 60.0,
           f"1000 instances, max |auroc diff| {worst_auroc:.1e}, "
           f"max |auprc diff| {worst_auprc:.1e}, {elapsed:.1f}s")


def test_criterion_3_full_softmax_oracle_and_separation():
    start = time.perf_counter()
    graph = binned_graph(toy_records(), toy_vocab(), 2)
    centers = list(graph.patient_hours())

    params = random_params(4, 3, 3, 3, seed=2, scale=0.8)
    initial = total_exact_loss(params, graph)
    for _ in range(200):
        exact_loss_fd_step(params, graph, lr=0.03)
    final = total_exact_loss(params, graph)

    train_cfg = HgmTrainConfig(
        epochs=200, d=8, seed=5, learning_rate=0.15,
        sampler=SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                              negatives_per_positive=3))
    trained = train_hgm(graph, train_cfg)
    sampler = Sampler(graph, SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                           negatives_per_positive=3, seed=123))
    pos_sig = []
    neg_sig = []
    for i in range(200):
        ctx = sampler.sample_context(*centers[i % len(centers)])
        pos, neg = context_scores(trained, graph, ctx)
        pos_sig.extend((1.0 / (1.0 + np.exp(-pos))).tolist())
        neg_sig.extend((1.0 / (1.0 + np.exp(-neg))).tolist())
    mean_pos = float(np.mean(pos_sig))
    mean_neg = float(np.mean(neg_sig))

    elapsed = time.perf_counter() - start
    report(3, final < initial and mean_pos > 0.9 and mean_neg < 0.1 and elapsed < 120.0,
           f"exact loss {initial:.3f}->{final:.3f} over 200 steps, "
           f"sigmoid(pos) {mean_pos:.3f}, sigmoid(neg) {mean_neg:.3f}, {elapsed:.1f}s")


def test_criterion_4_arm_ordering_with_planted_signal():
    start = time.perf_counter()
    gen = GenConfig(signal=1.0, **DESK_GEN)
    records = generate_synthetic(gen, seed=DESK_GEN_SEED)
    vocab = synthetic_vocabulary(gen)
    outcomes = run_experiments(records, vocab, ("HGM", "CNN", "HGM_CNN"), 12,
                               DESK_EXPERIMENT, jobs=1)
    hgm = outcomes["HGM"].report.mean_auroc
    cnn = outcomes["CNN"].report.mean_auroc
    combined = outcomes["HGM_CNN"].report.mean_auroc
    elapsed = time.perf_counter() - start
    ok = (combined >= cnn - 0.01 and combined >= hgm
          and min(hgm, cnn, combined) > 0.65 and elapsed < 600.0)
    report(4, ok,
           f"AUROC HGM {hgm:.3f}, CNN {cnn:.3f}, HGM+CNN {combined:.3f} "
           f"(combined-cnn {combined - cnn:+.3f}), {elapsed:.0f}s single-threaded")


def test_criterion_5_no_signal_calibration():
    gen = GenConfig(signal=0.0, **DESK_GEN)
    records = generate_synthetic(gen, seed=DESK_GEN_SEED)
    vocab = synthetic_vocabulary(gen)
    outcomes = run_experiments(records, vocab, ("HGM", "CNN", "HGM_CNN"), 12,
                               DESK_EXPERIMENT, jobs=1)
    means = {arm: outcomes[arm].report.mean_auroc for arm in outcomes}
    ok = all(0.40 <= m <= 0.60 for m in means.values())
    report(5, ok, "zero-signal mean AUROC " +
           ", ".join(f"{arm} {m:.3f}" for arm, m in sorted(means.items())))


DETERMINISM_CONFIG = """\
[data]
source = synthetic
n_patients = 30
n_labs = 6
n_diagnoses = 8
prevalence = 0.4
signal = 1.0

[experiment]
windows = 6
arms = HGM,CNN,HGM_CNN
folds = 3
seed = 17

[hgm]
d = 6
epochs = 2
learning_rate = 0.05
context_diagnoses = 3
context_labs = 3
context_copatients = 3
negatives = 2

[cnn]
filters = 4
kernel = 2
epochs = 4
learning_rate = 0.05

[output]
dir = PLACEHOLDER
"""


def test_criterion_6_end_to_end_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        cfg = tmp_path / f"run_{run}.ini"
        cfg.write_text(DETERMINISM_CONFIG.replace("PLACEHOLDER", str(out_dir)))
        assert cli.main(["run", "--config", str(cfg)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("report_*.json"))})
    ok = len(outputs[0]) == 3 and outputs[0] == outputs[1]
    report(6, ok, f"two runs, {len(outputs[0])} report files byte-identical")


def test_criterion_7_imputation_contract():
    from conftest import make_record, unit_normalizer

    vocab = toy_vocab(n_labs=4, n_diagnoses=3)
    params = init_params(8, 4, 4, 3, seed=99)
    # hour 2 observed, hour 1 fully missing, hour 0 observed
    rec = make_record("p", [(2.4, 1, 0.7), (0.2, 2, -1.1)], {0}, died=True)
    checked = 0
    for mode in (FeatureMode.EMBED_ONLY, FeatureMode.EMBED_PLUS_LABS):
        m = build_features(bin_events([rec], 3, unit_normalizer(vocab.n_labs)), mode, params)[0]
        prev_col = m[0, :8]
        missing_col = m[1, :8]
        if not np.array_equal(missing_col, prev_col + params.r_tt):
            report(7, False, f"mode {mode.value}: imputed column differs at bit level")
        checked += 1
    report(7, checked == 2, "missing-hour embedding column == previous + r_tt, bit-exact, "
                            "both embedding modes")


MIMIC_DIR = os.environ.get("HGM_EHR_MIMIC_DIR")


@pytest.mark.skipif(
    not MIMIC_DIR,
    reason="criterion 8 is data-gated: set HGM_EHR_MIMIC_DIR to a directory with "
           "events.csv/diagnoses.csv/outcomes.csv built from the credentialed cohort",
)
def test_criterion_8_mimic_reference_value():
    base = Path(MIMIC_DIR)
    records, vocab = parse_records(base / "events.csv", base / "diagnoses.csv",
                                   base / "outcomes.csv")
    config = ExperimentConfig(
        k_folds=10, seed=101,
        hgm=HgmTrainConfig(epochs=2, learning_rate=0.025, d=128),
        cnn=CnnTrainConfig(n_filters=32, kernel=3, epochs=30, batch_size=32,
                           learning_rate=0.05),
    )
    outcomes = run_experiments(records, vocab, ("HGM_CNN",), 6, config, jobs=1)
    mean = outcomes["HGM_CNN"].report.mean_auroc
    report(8, abs(mean - 0.800) <= 0.03,
           f"HGM+CNN 6h AUROC {mean:.3f} vs reference 0.800 +/- 0.03")
