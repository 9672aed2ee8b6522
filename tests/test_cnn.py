import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hgm_ehr import cnn
from hgm_ehr.cnn import (CnnParams, CnnTrainConfig, FeatureMode, build_features, forward,
                         init_cnn, load_cnn, predict, save_cnn, train_cnn)
from hgm_ehr.graph import build_graph
from hgm_ehr.hgm import ACTIVATIONS, init_params, load_params, save_params
from hgm_ehr.ingest import (GenConfig, bin_events, fit_normalizer, generate_synthetic,
                            synthetic_vocabulary)
from hgm_ehr.seeds import derive_seed

from conftest import make_record, toy_vocab, unit_normalizer
from oracles import backward, ce_loss

GRAD_FIELDS = ("filters", "conv_bias", "dense_w", "dense_b")


def zero_cnn(n_filters=2, kernel=2, n_features=3):
    return CnnParams(
        filters=np.zeros((n_filters, kernel, n_features)),
        conv_bias=np.zeros(n_filters),
        dense_w=np.zeros((n_filters, 2)),
        dense_b=np.zeros(2),
    )


def random_cnn(rng, n_filters=3, kernel=2, n_features=4):
    return CnnParams(
        filters=rng.normal(0, 0.6, (n_filters, kernel, n_features)),
        conv_bias=rng.normal(0, 0.3, n_filters),
        dense_w=rng.normal(0, 0.6, (n_filters, 2)),
        dense_b=rng.normal(0, 0.3, 2),
    )


class TestForward:
    def test_zero_params_give_even_split(self):
        rng = np.random.default_rng(0)
        probs = forward(zero_cnn(), rng.normal(size=(4, 3)))
        assert probs.tolist() == [0.5, 0.5]

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            params = random_cnn(rng)
            probs = forward(params, rng.normal(size=(5, 4)))
            assert np.all(probs > 0)
            assert abs(float(probs.sum()) - 1.0) < 1e-9

    def test_hand_computed_chain(self):
        # single filter, kernel 1, 2x2 input: full chain by hand
        params = CnnParams(
            filters=np.array([[[0.5, -0.25]]]),
            conv_bias=np.array([0.05]),
            dense_w=np.array([[0.8, -0.4]]),
            dense_b=np.array([0.1, -0.1]),
        )
        x = np.array([[1.0, 2.0], [-1.0, 0.5]])
        # conv: z0 = .5*1 - .25*2 + .05 = 0.05 ; z1 = .5*(-1) - .25*.5 + .05 = -0.575
        # relu -> [0.05, 0]; max-pool -> 0.05
        # logits = [.8*.05 + .1, -.4*.05 - .1] = [0.14, -0.12]
        e0, e1 = math.exp(0.14), math.exp(-0.12)
        expected = [e0 / (e0 + e1), e1 / (e0 + e1)]
        assert forward(params, x) == pytest.approx(expected, abs=1e-12)

    def test_time_shorter_than_kernel_rejected(self):
        params = zero_cnn(kernel=3)
        with pytest.raises(ValueError, match="kernel"):
            forward(params, np.zeros((2, 3)))

    def test_feature_width_must_match_filters(self):
        with pytest.raises(ValueError) as refused:
            forward(zero_cnn(n_features=3), np.zeros((4, 5)))
        assert str(refused.value) == "feature dimension 5 does not match filters (3)"

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(2)
        params = random_cnn(rng)
        x = rng.normal(size=(5, 4))
        base = forward(params, x)
        shifted = replace(params, dense_b=params.dense_b + 13.7)  # same constant on both logits
        assert np.allclose(forward(shifted, x), base, atol=1e-9)


class TestCeLoss:
    def test_even_split(self):
        assert ce_loss([0.5, 0.5], 0) == pytest.approx(math.log(2), abs=1e-12)
        assert ce_loss([0.5, 0.5], 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction(self):
        assert ce_loss([1.0, 0.0], 0) == 0.0

    def test_confident_mistake(self):
        assert ce_loss([0.9, 0.1], 1) == pytest.approx(-math.log(0.1), abs=1e-12)

    def test_zero_probability_clamped(self):
        assert ce_loss([1.0, 0.0], 1) == pytest.approx(-math.log(1e-12))

    def test_weight_scales_loss(self):
        assert ce_loss([0.5, 0.5], 0, weight=3.0) == pytest.approx(3 * math.log(2))


class TestBackward:
    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        # 6 hours give J = 5 windows for 3 filters, the zero-grid backward; 8
        # give J = 7 >= 2 * 3, the gather of each filter's pooled windows
        for trial, t in enumerate((6, 6, 6, 6, 8, 8)):
            params = random_cnn(rng)
            x, label = rng.normal(size=(t, 4)), bool(trial % 2)
            grads = backward(params, x, label)
            h = 1e-5
            for name in GRAD_FIELDS:
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
                    assert abs(fd - analytic[idx]) <= max(
                        1e-4 * max(abs(fd), abs(analytic[idx])), 1e-7)

    def test_maxpool_routes_to_argmax_only(self):
        # filter 0 saturates at time 0; filter 1's activations are all negative,
        # so it contributes no filter gradient at all
        params = CnnParams(
            filters=np.array([[[1.0, 0.0]], [[0.0, 1.0]]]),
            conv_bias=np.array([0.0, -10.0]),
            dense_w=np.array([[1.0, -1.0], [1.0, -1.0]]),
            dense_b=np.zeros(2),
        )
        x = np.array([[5.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        grads = backward(params, x, 1)
        assert np.count_nonzero(grads.filters[0]) > 0
        # gradient for filter 0 uses only the time-0 window [5, 1]
        ratio = grads.filters[0, 0, 0] / grads.filters[0, 0, 1]
        assert ratio == pytest.approx(5.0)
        assert np.array_equal(grads.filters[1], np.zeros((1, 2)))
        assert grads.conv_bias[1] == 0.0

    def test_duplicated_example_doubles_gradient(self):
        rng = np.random.default_rng(4)
        params = random_cnn(rng)
        x = rng.normal(size=(5, 4))
        single = backward(params, x, 1)
        doubled = cnn._batch_backward(params, np.stack([x, x]), np.array([1, 1]), np.ones(2))[1]
        for name in GRAD_FIELDS:
            assert np.allclose(getattr(doubled, name), 2.0 * getattr(single, name),
                               rtol=0, atol=1e-15)

    def test_batch_equals_sum_of_singles(self):
        rng = np.random.default_rng(5)
        params = random_cnn(rng)
        features = rng.normal(size=(6, 5, 4))
        labels = np.arange(6) % 2
        weights = rng.uniform(0.5, 2.0, 6)
        batch = cnn._batch_backward(params, features, labels, weights)[1]
        for name in GRAD_FIELDS:
            total = sum(getattr(backward(params, x, y, w), name)
                        for x, y, w in zip(features, labels, weights))
            assert np.allclose(getattr(batch, name), total, atol=1e-12)


class TestPredict:
    def test_zero_params_score_half(self):
        assert predict(zero_cnn(), np.ones((4, 3))) == 0.5

    def test_score_in_unit_interval_and_matches_forward(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            params = random_cnn(rng)
            x = rng.normal(size=(5, 4))
            score = predict(params, x)
            assert 0.0 <= score <= 1.0
            assert score == pytest.approx(float(forward(params, x)[1]), abs=1e-15)


class TestTrainCnn:
    def separable_set(self, rng, n=60):
        # label decided by the sign of feature 0, held constant across time
        features = np.empty((n, 4, 3))
        for x in features:
            x[:] = rng.normal(size=(4, 3))
            x[:, 0] = rng.normal()
        return features, features[:, 0, 0] > 0

    def test_zero_epochs_returns_init(self):
        rng = np.random.default_rng(7)
        features, labels = self.separable_set(rng)
        cfg = CnnTrainConfig(n_filters=4, kernel=2, epochs=0)
        params = train_cnn(features, cfg, labels, 5)
        expected = init_cnn(3, cfg, seed=derive_seed(5, "cnn-init"))
        for name in GRAD_FIELDS:
            assert np.array_equal(getattr(params, name), getattr(expected, name))

    def test_learns_separable_toy(self):
        rng = np.random.default_rng(8)
        features, labels = self.separable_set(rng, n=80)
        cfg = CnnTrainConfig(n_filters=8, kernel=2, epochs=50, learning_rate=0.05)
        params = train_cnn(features, cfg, labels, 3)
        correct = sum((predict(params, x) > 0.5) == y for x, y in zip(features, labels))
        assert correct / len(features) > 0.95

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(9)
        features, labels = self.separable_set(rng)
        cfg = CnnTrainConfig(n_filters=4, kernel=2, epochs=5)
        a = train_cnn(features, cfg, labels, 11)
        b = train_cnn(features, cfg, labels, 11)
        for name in GRAD_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("class_weighting", [True, False], ids=["weighted", "unweighted"])
    def test_one_batch_epoch_is_one_class_weighted_step(self, class_weighting):
        # 10 examples, 3 deaths, one batch of 10: training is init plus one SGD step
        rng = np.random.default_rng(12)
        features = rng.normal(size=(10, 4, 3))
        labels = np.arange(10) < 3
        cfg = CnnTrainConfig(n_filters=4, kernel=2, epochs=1, batch_size=10, learning_rate=0.1,
                             class_weighting=class_weighting)
        params = train_cnn(features, cfg, labels, 6)
        # n / (2 n_neg) for survivors and n / (2 n_pos) for deaths, or 1 for both
        weights = np.where(labels, 10 / 6, 10 / 14) if class_weighting else np.ones(10)
        expected = init_cnn(3, cfg, seed=derive_seed(6, "cnn-init"))
        _, grads = cnn._batch_backward(expected, features, labels.astype(int), weights)
        # train_cnn sums the batch in its shuffled order, so only rounding may differ
        for name in GRAD_FIELDS:
            np.testing.assert_allclose(getattr(params, name),
                                       getattr(expected, name) - 0.01 * getattr(grads, name),
                                       rtol=1e-10, atol=1e-13)

    def test_divergence_raises(self):
        # learning rate 1e3 on raw labs used to return filters near 4.4e22 and
        # dense weights near 1.3e23 without a word
        cfg = GenConfig(n_patients=40, n_labs=6, n_diagnoses=8, window_hours=6)
        records = generate_synthetic(cfg, seed=3)
        feats = features(records, 6, FeatureMode.RAW_LABS, normalizer=fit_normalizer(records, 6, 6))
        labels = np.array([rec.died for rec in records])
        train_cfg = CnnTrainConfig(n_filters=4, kernel=2, epochs=5, learning_rate=1e3)
        message = r"^cnn: a parameter non-finite or beyond 1e\+06 after epoch \d/5: max \|parameter\| "
        with pytest.raises(FloatingPointError, match=message):
            train_cnn(feats, train_cfg, labels, 0)

    def test_nan_parameter_raises(self, monkeypatch):
        # one dense weight turns NaN after the first step
        def nan_dense_w(params, batch, labels, weights):
            probs, grads = batch_backward(params, batch, labels, weights)
            grads.dense_w[0, 0] = np.nan
            return probs, grads

        batch_backward = cnn._batch_backward
        monkeypatch.setattr(cnn, "_batch_backward", nan_dense_w)
        rng = np.random.default_rng(9)
        features, labels = self.separable_set(rng)
        cfg = CnnTrainConfig(n_filters=4, kernel=2, epochs=3)
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"after epoch 1/3: max \|parameter\| nan$"):
            train_cnn(features, cfg, labels, 11)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="both classes"):
            train_cnn(rng.normal(size=(10, 4, 3)), CnnTrainConfig(epochs=1), np.ones(10, bool), 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_cnn(np.empty((0, 4, 3)), CnnTrainConfig(epochs=1), np.empty(0, bool), 0)

    @pytest.mark.parametrize("shape, n_labels", [((6, 4, 3), 5), ((6, 4, 3), 7), ((6, 12), 6)])
    def test_features_and_labels_must_match(self, shape, n_labels):
        labels = np.arange(n_labels) % 2
        with pytest.raises(ValueError, match="do not match"):
            train_cnn(np.zeros(shape), CnnTrainConfig(epochs=1), labels, 0)


def features(records, window, mode, n_labs=3, params=None, normalizer=None):
    """build_features over the records binned under normalizer (default: values as given)."""
    return build_features(bin_events(records, window, normalizer or unit_normalizer(n_labs)),
                          mode, params)


def reference_features(records, normalizer, window, n_labs, params):
    """Per-patient, per-hour features read straight from each record's event columns.

    Each in-window event is z-scored and summed into its (hour, lab) cell in
    event order, then averaged; an hour with an observed lab is projected,
    a fully-missing one is the previous hour's embedding plus r_tt (zeros
    first). Returns {mode: (P, T, F)}, oldest hour first, plus the per-hour
    (values, observed) pair.
    """
    values = np.zeros((len(records), window, n_labs))
    observed = np.zeros((len(records), window, n_labs), dtype=bool)
    embeddings = np.zeros((len(records), window, params.d))
    act = ACTIVATIONS[params.activation][0]
    for p, rec in enumerate(records):
        sums = {}
        for hours, lab, value in rec.events.tolist():
            if hours < window:
                z = (value - normalizer.mean[lab]) / normalizer.std[lab]
                total, count = sums.get((int(hours), lab), (0.0, 0))
                sums[(int(hours), lab)] = (total + z, count + 1)
        for (hour, lab), (total, count) in sums.items():
            values[p, hour, lab] = total / count
            observed[p, hour, lab] = True
        previous = None
        for t, hour in enumerate(range(window - 1, -1, -1)):
            if observed[p, hour].any():
                emb = act(params.w_p @ values[p, hour])
            elif previous is not None:
                emb = previous + params.r_tt
            else:
                emb = np.zeros(params.d)
            embeddings[p, t] = previous = emb
    labs = values[:, ::-1]
    return {
        FeatureMode.RAW_LABS: labs,
        FeatureMode.EMBED_ONLY: embeddings,
        FeatureMode.EMBED_PLUS_LABS: np.concatenate([embeddings, labs], axis=2),
    }, (values, observed)


class TestBuildFeatures:
    def test_embed_plus_labs_width(self):
        params = init_params(8, 3, 4, seed=0)
        rec = make_record("p", [(0.5, 0, 1.0)], {1})
        m = features([rec], 6, FeatureMode.EMBED_PLUS_LABS, params=params)
        assert m.shape == (1, 6, 11)  # d = 8 embedding columns, then 3 labs

    def test_rows_run_oldest_to_newest(self):
        rec = make_record("p", [(0.2, 0, 5.0), (2.5, 1, 7.0)], set())
        m = features([rec], 3, FeatureMode.RAW_LABS)[0]
        assert m.shape == (3, 3)
        assert m[0, 1] == 7.0  # hour 2, oldest, first row
        assert m[2, 0] == 5.0  # hour 0, newest, last row

    def test_label_carried(self, monkeypatch):
        # train_fold feeds train_cnn the arm's (P, T, F) features and a label
        # vector: row p is the features of record p, label p its died flag
        from hgm_ehr import evaluate

        cfg = GenConfig(n_patients=8, n_labs=3, n_diagnoses=4, window_hours=4, prevalence=0.5)
        records = generate_synthetic(cfg, seed=6)
        seen = []
        monkeypatch.setattr(evaluate, "train_cnn",
                            lambda feats, config, labels, seed: seen.append((feats, labels)))
        evaluate.train_fold(records, ("CNN",), 4, toy_vocab(3, 4), evaluate.ExperimentConfig(), 0)
        expected = features(records, 4, FeatureMode.RAW_LABS,
                            normalizer=fit_normalizer(records, 4, 3))
        feats, labels = seen[0]
        assert labels.tolist() == [int(rec.died) for rec in records]
        assert np.array_equal(feats, expected)

    def test_missing_hour_embedding_chains_previous_plus_translation(self):
        params = init_params(6, 3, 4, seed=1)
        # hour 2 (oldest) and hour 0 observed; hour 1 fully missing
        rec = make_record("p", [(2.5, 0, 1.0), (0.5, 1, 2.0)], {1})
        values, observed = bin_events([rec], 3, unit_normalizer(3))
        m = build_features((values, observed), FeatureMode.EMBED_ONLY, params)[0]
        act = ACTIVATIONS[params.activation][0]
        oldest = act(params.w_p @ values[0, 2])
        assert np.array_equal(m[0], oldest)
        assert np.array_equal(m[1], oldest + params.r_tt)  # bit-level imputation
        assert np.array_equal(m[2], act(params.w_p @ values[0, 0]))

    def test_leading_missing_hours_start_from_zero(self):
        params = init_params(5, 3, 4, seed=2)
        rec = make_record("p", [(0.5, 0, 1.0)], set())
        m = features([rec], 3, FeatureMode.EMBED_ONLY, params=params)[0]
        assert np.array_equal(m[0], np.zeros(5))
        assert np.array_equal(m[1], params.r_tt)  # zero + r_tt

    def test_raw_labs_is_a_read_only_view(self):
        cfg = GenConfig(n_patients=5, n_labs=4, n_diagnoses=5, window_hours=6)
        values, observed = bin_events(generate_synthetic(cfg, seed=3), 6, unit_normalizer(4))
        labs = build_features((values, observed), FeatureMode.RAW_LABS)
        assert np.shares_memory(labs, values)
        assert not labs.flags.writeable
        assert values.flags.writeable
        assert np.array_equal(labs, values[:, ::-1])

    def test_embedding_mode_requires_params(self):
        rec = make_record("p", [(0.5, 0, 1.0)], set())
        with pytest.raises(ValueError, match="requires trained embedding"):
            features([rec], 3, FeatureMode.EMBED_ONLY)

    def test_column_count_always_window(self):
        cfg = GenConfig(n_patients=5, n_labs=4, n_diagnoses=5, window_hours=6)
        records = generate_synthetic(cfg, seed=3)
        params = init_params(3, 4, 5, seed=4)
        widths = {FeatureMode.RAW_LABS: 4, FeatureMode.EMBED_ONLY: 3,
                  FeatureMode.EMBED_PLUS_LABS: 7}
        for mode in FeatureMode:
            m = features(records, 6, mode, n_labs=4, params=params)
            assert m.shape == (5, 6, widths[mode])

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu"])
    def test_features_and_graph_match_per_event_oracle(self, activation):
        cfg = GenConfig(n_patients=30, n_labs=6, n_diagnoses=8, window_hours=8)
        records = generate_synthetic(cfg, seed=21)
        vocab = synthetic_vocabulary(cfg)
        normalizer = fit_normalizer(records, 8, 6)
        params = init_params(7, 6, 8, activation=activation, seed=5)
        params.w_p *= 50.0  # out of the activation's near-linear range
        expected, (values, observed) = reference_features(records, normalizer, 8, 6, params)
        # some cells average several events, some hours are imputed
        shared = sum(int((np.bincount(ev["hours"].astype(int) * 6 + ev["lab"]) > 1).sum())
                     for ev in (rec.events[rec.events["hours"] < 8] for rec in records))
        assert shared > 0 and (~observed.any(axis=2)).sum() > 0
        binned = bin_events(records, 8, normalizer)
        for mode in FeatureMode:
            assert np.array_equal(build_features(binned, mode, params), expected[mode]), mode
        graph = build_graph(records, vocab, binned)
        assert np.array_equal(graph.values, values)
        assert np.array_equal(graph.observed, observed)


class TestCnnCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        params = random_cnn(rng)
        save_cnn(params, tmp_path / "cnn.json")
        loaded = load_cnn(tmp_path / "cnn.json")
        for name in GRAD_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_wrong_kind_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        save_cnn(random_cnn(rng), tmp_path / "cnn.json")
        with pytest.raises(ValueError, match="kind"):
            load_params(tmp_path / "cnn.json")

    @pytest.mark.parametrize("edit, named", [
        (lambda obj, dim, array: obj.pop("dims"), "'dims' is missing or not an object"),
        (lambda obj, dim, array: obj["dims"].pop(dim), "dims {dim!r} is missing or not an integer"),
        (lambda obj, dim, array: obj.pop("arrays"), "'arrays' is missing or not an object"),
        (lambda obj, dim, array: obj["arrays"].pop(array), "array {array!r} is missing"),
        (lambda obj, dim, array: obj.update(arrays=list(obj["arrays"].values())),
         "'arrays' is missing or not an object"),
    ], ids=["dims", "dims_key", "arrays", "array", "arrays_list"])
    @pytest.mark.parametrize("kind", ["cnn", "hgm"])
    def test_malformed_checkpoint_refused_naming_the_file_and_key(self, tmp_path, kind, edit,
                                                                  named):
        path = tmp_path / f"{kind}.json"
        if kind == "cnn":
            save_cnn(random_cnn(np.random.default_rng(13)), path)
            load, dim, array = load_cnn, "features", "dense_b"
        else:
            save_params(init_params(3, 2, 2, seed=1), path)
            load, dim, array = load_params, "d", "r_tt"
        obj = json.loads(path.read_text())
        edit(obj, dim, array)
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as refused:
            load(path)
        assert str(refused.value) == f"{path}: " + named.format(dim=dim, array=array)


def generic_batch_backward(params, batch, labels, weights):
    """The convolution as einsum over window views and the max-pool with axis gathers.

    The reference for the module's im2col + gemm kernels: the same products,
    summed in another order, so equal to rounding, and bit for bit where
    every sum is exact.
    """
    n_filters, kernel, _ = params.filters.shape
    windows = np.lib.stride_tricks.sliding_window_view(batch, kernel, axis=1)
    z = np.einsum("fac,bjca->bjf", params.filters, windows) + params.conv_bias
    relu = np.maximum(z, 0.0)
    pool_idx = relu.argmax(axis=1)
    pooled = np.take_along_axis(relu, pool_idx[:, None, :], axis=1)[:, 0, :]
    probs = cnn._softmax_rows(pooled @ params.dense_w + params.dense_b)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(batch.shape[0]), labels] = 1.0
    d_logits = (probs - one_hot) * weights[:, None]
    d_pooled = d_logits @ params.dense_w.T
    z_at = np.take_along_axis(z, pool_idx[:, None, :], axis=1)[:, 0, :]
    d_z = d_pooled * (z_at > 0)
    win_at = np.take_along_axis(windows, pool_idx[:, :, None, None], axis=1)
    d_filters = np.einsum("bf,bfca->fac", d_z, win_at)
    return probs, cnn.CnnParams(d_filters, d_z.sum(axis=0), pooled.T @ d_logits,
                                d_logits.sum(axis=0))


def assert_close_to_reference(got, want, name):
    # a window routed to the wrong place is off by O(1), far beyond this
    assert got.shape == want.shape, name
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(),
                               err_msg=name)


class TestFlatGatherMatchesGenericKernels:
    def assert_same_bits(self, params, batch, labels, weights):
        probs, grads = cnn._batch_backward(params, batch, labels, weights)
        ref_probs, ref = generic_batch_backward(params, batch, labels, weights)
        assert np.array_equal(probs, ref_probs)
        for name in GRAD_FIELDS:
            got, want = getattr(grads, name), getattr(ref, name)
            assert got.shape == want.shape and np.array_equal(got, want), name

    def assert_close(self, params, batch, labels, weights):
        probs, grads = cnn._batch_backward(params, batch, labels, weights)
        ref_probs, ref = generic_batch_backward(params, batch, labels, weights)
        assert_close_to_reference(probs, ref_probs, "probs")
        for name in GRAD_FIELDS:
            assert_close_to_reference(getattr(grads, name), getattr(ref, name), name)

    def random_batch(self, rng, n, t, c, n_filters, kernel):
        params = random_cnn(rng, n_filters=n_filters, kernel=kernel, n_features=c)
        return (params, rng.normal(size=(n, t, c)), rng.integers(0, 2, n),
                rng.uniform(0.5, 2.0, n))

    @pytest.mark.parametrize("n, t, c, n_filters, kernel", [
        (32, 48, 30, 16, 3),   # raw labs at 48 h
        (32, 12, 46, 16, 3),   # embeddings beside labs at 12 h
        (32, 6, 158, 32, 3),   # d = 128 beside 30 labs at 6 h
        (7, 5, 4, 3, 1),       # kernel 1
        (7, 5, 4, 3, 5),       # kernel = T: one window
        (1, 6, 4, 3, 2),       # one example
        (5, 10, 4, 4, 3),      # J = 2 * n_filters: the gather
        (5, 9, 4, 4, 3),       # J = 2 * n_filters - 1: the zero grid
        (1, 9, 4, 2, 2),       # one example, gathered
    ])
    def test_random_batches(self, n, t, c, n_filters, kernel):
        rng = np.random.default_rng(n * 1000 + t * 10 + kernel)
        for _ in range(3):
            self.assert_close(*self.random_batch(rng, n, t, c, n_filters, kernel))

    def test_tied_pool_maxima_take_the_first_window(self):
        # filter 0 reads column 0 only, which ties at 2.0 in hours 0 and 2; the
        # windows differ in column 1, so routing to another tie changes the gradient
        params = CnnParams(
            filters=np.array([[[1.0, 0.0]], [[0.0, 0.5]]]),
            conv_bias=np.array([0.0, 0.1]),
            dense_w=np.array([[1.0, -1.0], [0.5, 0.25]]),
            dense_b=np.zeros(2),
        )
        batch = np.array([[[2.0, 5.0], [1.0, 1.0], [2.0, 7.0]],
                          [[3.0, 1.0], [3.0, 1.0], [3.0, 4.0]]])
        labels, weights = np.array([1, 0]), np.array([1.0, 2.0])
        self.assert_same_bits(params, batch, labels, weights)
        probs, grads = cnn._batch_backward(params, batch, labels, weights)
        # filter 0's gradient is the d_z-weighted sum of each example's hour-0 row
        d_z = ((probs - np.eye(2)[labels]) * weights[:, None]) @ params.dense_w[0]
        assert np.allclose(grads.filters[0, 0], d_z @ batch[:, 0, :], rtol=0, atol=1e-15)

    def test_tied_maxima_in_random_integer_grids(self):
        # Filters come in identical pairs whose dense rows are each other's
        # swapped, so both logits are the same integer and every probability is
        # 0.5: each gradient is then a sum of small dyadic numbers, exact in any
        # order. 6 hours keep J < 2 * 4 filters, the zero grid; 12 and 20 gather.
        rng = np.random.default_rng(11)
        for kernel, t in ((1, 6), (2, 6), (3, 6), (1, 12), (3, 12), (2, 20)):
            dense_w = np.array([rng.choice(5, 2, replace=False) - 2 for _ in range(2)], float)
            params = CnnParams(
                filters=np.repeat(rng.integers(-1, 2, (2, kernel, 5)).astype(float), 2, axis=0),
                conv_bias=np.zeros(4),
                dense_w=np.stack([dense_w[0], dense_w[0, ::-1], dense_w[1], dense_w[1, ::-1]]),
                dense_b=np.zeros(2),
            )
            batch = rng.integers(0, 3, (9, t, 5)).astype(float)
            labels, weights = rng.integers(0, 2, 9), rng.integers(1, 4, 9).astype(float)
            assert np.all(cnn._batch_forward(params, batch)[0] == 0.5)
            self.assert_same_bits(params, batch, labels, weights)

    def test_non_contiguous_feature_matrix_view(self):
        rng = np.random.default_rng(12)
        params = random_cnn(rng, n_filters=3, kernel=2, n_features=4)
        grid = rng.normal(size=(3, 8, 9))
        view = grid[1, ::2, 1::2]          # (4, 4), strided in both axes
        assert not view.flags.c_contiguous
        grads = backward(params, view, 1, 1.5)
        _, ref = generic_batch_backward(params, view[None], np.array([1]), np.array([1.5]))
        for name in GRAD_FIELDS:
            assert_close_to_reference(getattr(grads, name), getattr(ref, name), name)
        assert np.array_equal(forward(params, view), forward(params, view.copy()))

    def test_training_with_reference_kernels_scores_the_same(self, monkeypatch):
        # SGD feeds each step's rounding into the next; over a whole training
        # run the two kernels must still rank every patient the same way
        cfg = GenConfig(n_patients=60, n_labs=5, n_diagnoses=6, window_hours=8)
        records = generate_synthetic(cfg, seed=13)
        feats = features(records, 8, FeatureMode.RAW_LABS, normalizer=fit_normalizer(records, 8, 5))
        labels = np.array([rec.died for rec in records])
        train_cfg = CnnTrainConfig(n_filters=8, kernel=3, epochs=10)
        params = train_cnn(feats, train_cfg, labels, 4)
        scores = np.array([predict(params, x) for x in feats])
        monkeypatch.setattr(cnn, "_batch_backward", generic_batch_backward)
        ref_params = train_cnn(feats, train_cfg, labels, 4)
        ref_scores = generic_batch_backward(ref_params, feats, labels.astype(int),
                                            np.ones(len(feats)))[0][:, 1]
        assert 0 < labels.sum() < len(labels)
        assert np.array_equal(np.argsort(scores, kind="stable"),
                              np.argsort(ref_scores, kind="stable"))
        assert np.abs(scores - ref_scores).max() <= 1e-12
