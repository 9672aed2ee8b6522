import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from hgm_ehr import hgm
from hgm_ehr.graph import NodeType
from hgm_ehr.hgm import (ACTIVATIONS, PARAM_FIELDS, HgmParams, HgmTrainConfig, embed_hours,
                         init_params, load_params, ns_grad, ns_loss, save_params, train_hgm)
from hgm_ehr.ingest import GenConfig, bin_events, generate_synthetic, synthetic_vocabulary
from hgm_ehr.sampler import Sampler, SamplerConfig, UntrainableCenterError
from hgm_ehr.seeds import derive_seed

import oracles
from conftest import binned_graph, make_context, make_record, toy_vocab, unit_normalizer
from oracles import NodeId, Relation, exact_softmax_loss, neighbors, softmax_context_loss
from test_sampler import awkward_graphs, desk_fold_0, edge_case_graphs


def zero_params(d=2, p_in=2, n_labs=2, n_diagnoses=2, activation="tanh"):
    return HgmParams(
        w_p=np.zeros((d, p_in)), w_i=np.zeros((d, n_labs)), w_d=np.zeros((d, n_diagnoses)),
        r_ip=np.zeros(d), r_pd=np.zeros(d), r_tt=np.zeros(d), activation=activation,
    )


def random_params(d, n_labs, n_diagnoses, activation="tanh", seed=0, scale=1.0):
    params = init_params(d, n_labs, n_diagnoses, activation=activation, seed=seed)
    for name in PARAM_FIELDS:
        getattr(params, name)[...] *= scale * d  # undo the 1/d init scale
    return params


def lab_node(i):
    return NodeId(NodeType.LAB, i)


def dx_node(j):
    return NodeId(NodeType.DIAGNOSIS, j)


def ph(p, h):
    return NodeId(NodeType.PATIENT_HOUR, (p, h))


class TestExactSoftmaxLoss:
    def test_single_candidate_softmax_is_zero(self):
        for s in (-2.0, 0.0, 3.7):
            assert softmax_context_loss([s], [s]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_embeddings_give_log_n(self, toy_graph):
        graph, _, _ = toy_graph
        params = zero_params(d=4, p_in=3, n_labs=3, n_diagnoses=3)
        n_vertices = 2 * 2 + 3 + 3  # patient-hours, labs, diagnoses
        center = ph(0, 1)
        n_neighbors = sum(
            len(neighbors(graph, center, t))
            for t in (NodeType.LAB, NodeType.DIAGNOSIS, NodeType.PATIENT_HOUR)
        )
        expected = n_neighbors * math.log(n_vertices)
        assert exact_softmax_loss(params, graph, center) == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_oracle(self, toy_graph):
        graph, _, _ = toy_graph
        params = random_params(4, 3, 3, seed=5, scale=0.8)
        act = ACTIVATIONS[params.activation][0]
        # independent re-derivation: every candidate vertex scored with the
        # relation form of its type, then every neighbor
        c_hour = {hour: act(params.w_p @ graph.values[hour]) for hour in np.ndindex(2, 2)}
        c_lab = [act(params.w_i[:, i]) for i in range(3)]
        c_dx = [act(params.w_d[:, j]) for j in range(3)]
        for center in [ph(p, h) for p in range(2) for h in range(2)]:
            c_u = c_hour[center.index]
            tested = {i: float(np.dot(c_lab[i] + params.r_ip, c_u)) for i in range(3)}
            diagnosed = {j: float(np.dot(c_u + params.r_pd, c_dx[j])) for j in range(3)}
            co_patient = {hour: float(np.dot(c_u, c_v)) for hour, c_v in c_hour.items()}
            z = sum(math.exp(s) for scores in (tested, diagnosed, co_patient)
                    for s in scores.values())
            expected = 0.0
            for t, scores in ((NodeType.LAB, tested), (NodeType.DIAGNOSIS, diagnosed),
                              (NodeType.PATIENT_HOUR, co_patient)):
                for nb in neighbors(graph, center, t):
                    expected -= scores[nb.index] - math.log(z)
            assert exact_softmax_loss(params, graph, center) == pytest.approx(expected, rel=1e-10)


class TestNsLoss:
    def test_zero_params_one_pos_one_neg(self, toy_graph):
        graph, _, _ = toy_graph
        params = zero_params(d=2, p_in=3, n_labs=3, n_diagnoses=3)
        ctx = make_context(graph, (0, 0), pos_labs=(lab_node(0),), neg_labs=((lab_node(2),),))
        assert ns_loss(params, graph, ctx) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_zero_params_closed_form(self, toy_graph):
        graph, _, _ = toy_graph
        params = zero_params(d=3, p_in=3, n_labs=3, n_diagnoses=3)
        sampler = Sampler(graph, SamplerConfig(n_diagnoses=4, n_labs=4, n_copatients=4,
                                               negatives_per_positive=3), 2)
        ctx = sampler.sample_context(0, 1)
        n_pos = ctx.n_positives()
        n_neg = sum(len(negs) for negs in
                    ctx.neg_diagnoses + ctx.neg_labs + ctx.neg_patients) + len(ctx.neg_temporal)
        assert ns_loss(params, graph, ctx) == pytest.approx((n_pos + n_neg) * math.log(2), rel=1e-12)

    def test_matches_independent_reimplementation(self, shared_dx_graph):
        graph, _, _ = shared_dx_graph
        params = random_params(4, 4, 4, seed=11, scale=1.5)
        sampler = Sampler(graph, SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                               negatives_per_positive=2), 3)
        act = ACTIVATIONS[params.activation][0]
        for center in (ph(0, 0), ph(0, 1), ph(1, 1)):
            ctx = sampler.sample_context(*center.index)
            c_u = act(params.w_p @ graph.values[center.index])

            def pair_loss(relation, index, positive):
                # the pair's translated dot product; a co-patient pair translates by zero
                if relation == 0:
                    s = float((act(params.w_i[:, index]) + params.r_ip) @ c_u)
                elif relation == 1:
                    s = float((c_u + params.r_pd) @ act(params.w_d[:, index]))
                else:
                    r_tt = params.r_tt if relation == 3 else 0.0
                    s = float((c_u + r_tt) @ act(params.w_p @ graph.values[tuple(index)]))
                return -math.log(1.0 / (1.0 + math.exp(s if not positive else -s)))

            # every term of the four relations (tested, diagnosed, co-patient, temporal)
            expected = sum(pair_loss(relation, index, y == 1.0)
                           for relation, terms in enumerate(ctx.terms)
                           for index, y in zip(terms.index.tolist(), terms.target.tolist()))
            assert ns_loss(params, graph, ctx) == pytest.approx(expected, rel=1e-10)

    def test_nonnegative(self, shared_dx_graph):
        graph, _, _ = shared_dx_graph
        sampler = Sampler(graph, SamplerConfig(n_diagnoses=2, n_labs=2, n_copatients=2,
                                               negatives_per_positive=2), 4)
        for seed in range(8):
            params = random_params(3, 4, 4, seed=seed, scale=2.0)
            ctx = sampler.sample_context(0, 1)
            assert ns_loss(params, graph, ctx) >= 0.0


def random_instance(seed, activation="tanh"):
    """Small random graph + context + params for gradient checks."""
    rng = np.random.default_rng(seed)
    cfg = GenConfig(
        n_patients=int(rng.integers(4, 8)), n_labs=int(rng.integers(3, 7)),
        n_diagnoses=int(rng.integers(3, 8)), window_hours=int(rng.integers(2, 4)),
    )
    records = generate_synthetic(cfg, seed=int(rng.integers(0, 2**31)))
    graph = binned_graph(records, synthetic_vocabulary(cfg), cfg.window_hours)
    sampler = Sampler(graph, SamplerConfig(
        n_diagnoses=int(rng.integers(1, 4)), n_labs=int(rng.integers(1, 4)),
        n_copatients=int(rng.integers(1, 4)), negatives_per_positive=int(rng.integers(1, 4))),
        int(rng.integers(0, 2**31)))
    ctx = sampler.sample_context(int(rng.integers(0, graph.n_patients)),
                                 int(rng.integers(0, graph.window_hours)))
    params = random_params(int(rng.integers(2, 5)), cfg.n_labs, cfg.n_diagnoses,
                           activation=activation, seed=int(rng.integers(0, 2**31)),
                           scale=float(rng.uniform(0.5, 2.0)))
    return params, graph, ctx


def finite_difference_check(params, graph, ctx, h=1e-5, tol=1e-4):
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
            err = abs(fd - analytic[idx])
            assert err <= max(tol * max(abs(fd), abs(analytic[idx])), 1e-7), (
                f"{name}{idx}: analytic {analytic[idx]} vs fd {fd}")


class TestNsGrad:
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu"])
    def test_finite_differences(self, activation):
        for seed in (3, 17):
            params, graph, ctx = random_instance(seed, activation)
            finite_difference_check(params, graph, ctx)

    def test_zero_params_zero_gradient(self, toy_graph):
        graph, _, _ = toy_graph
        params = zero_params(d=3, p_in=3, n_labs=3, n_diagnoses=3)
        sampler = Sampler(graph, SamplerConfig(n_diagnoses=2, n_labs=2, n_copatients=2,
                                               negatives_per_positive=2), 5)
        grads = ns_grad(params, graph, sampler.sample_context(0, 1))
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(grads, name), np.zeros_like(getattr(params, name)))

    def test_duplicated_positive_doubles_contribution(self, toy_graph):
        graph, _, _ = toy_graph
        params = random_params(3, 3, 3, seed=6, scale=1.0)
        single = make_context(graph, (0, 1), pos_labs=(lab_node(0),), neg_labs=((lab_node(2),),))
        doubled = make_context(graph, (0, 1), pos_labs=(lab_node(0), lab_node(0)),
                               neg_labs=((lab_node(2),), (lab_node(2),)))
        g1 = ns_grad(params, graph, single)
        g2 = ns_grad(params, graph, doubled)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(g2, name), 2.0 * getattr(g1, name))

    def test_untouched_entries_zero(self, toy_graph):
        graph, _, _ = toy_graph
        params = random_params(3, 3, 3, seed=7, scale=1.0)
        ctx = make_context(graph, (0, 0), pos_labs=(lab_node(0),), neg_labs=((lab_node(2),),))
        grads = ns_grad(params, graph, ctx)
        assert np.array_equal(grads.w_i[:, 1], np.zeros(3))  # lab 1 not in context
        assert np.array_equal(grads.w_d, np.zeros_like(grads.w_d))
        assert np.array_equal(grads.r_pd, np.zeros(3))
        assert np.array_equal(grads.r_tt, np.zeros(3))


class TestTrainHgm:
    def test_zero_epochs_returns_initialization(self, toy_graph):
        graph, _, _ = toy_graph
        cfg = HgmTrainConfig(epochs=0, d=4)
        params = train_hgm(graph, cfg, 9)
        expected = init_params(4, 3, 3, activation="tanh",
                               seed=derive_seed(9, "hgm-init"))
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(params, name), getattr(expected, name))

    def test_same_seed_bit_identical(self, shared_dx_graph):
        graph, _, _ = shared_dx_graph
        cfg = HgmTrainConfig(epochs=3, d=4, learning_rate=0.1,
                             sampler=SamplerConfig(n_diagnoses=2, n_labs=2, n_copatients=2,
                                                   negatives_per_positive=2))
        a = train_hgm(graph, cfg, 12)
        b = train_hgm(graph, cfg, 12)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_epoch_loss_non_increasing_early(self, toy_graph):
        graph, _, _ = toy_graph
        losses = []
        cfg = HgmTrainConfig(epochs=10, d=8, learning_rate=0.08,
                             sampler=SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                                   negatives_per_positive=3))
        train_hgm(graph, cfg, 3, on_epoch=lambda e, loss: losses.append(loss))
        assert len(losses) == 10
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier * 1.05

    def test_divergence_raises(self):
        # relu at lr = 50 diverges: from epoch 9 the scores overflow and the
        # loss is inf while |w_p| ~ 3.6e197 is still finite, which used to be
        # returned with only a RuntimeWarning
        cfg = GenConfig(n_patients=12, n_labs=6, n_diagnoses=8, window_hours=3)
        graph = binned_graph(generate_synthetic(cfg, seed=8), synthetic_vocabulary(cfg), 3)
        train_cfg = HgmTrainConfig(epochs=12, d=4, learning_rate=50.0, activation="relu")
        message = r"^hgm: non-finite .* epoch \d+/12 \(step \d+ of 432\)"
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=message):
            train_hgm(graph, train_cfg, 1)

    def test_blow_up_that_collapses_raises(self):
        # relu at lr = 50 on this graph: the epoch losses go 3.5e64, 2.6e124,
        # 1.1e147 and then stay at a finite 115, and |w_p| ~ 7.4e75 used to be
        # returned; the first epoch already leaves a parameter near 9.5e36
        cfg = GenConfig(n_patients=20, n_labs=8, n_diagnoses=10, window_hours=4)
        graph = binned_graph(generate_synthetic(cfg, seed=8), synthetic_vocabulary(cfg), 4)
        train_cfg = HgmTrainConfig(epochs=8, learning_rate=50.0, d=4, activation="relu")
        message = r"^hgm: non-finite .* beyond 1e\+06, after epoch \d+/8 \(step \d+ of \d+\)"
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=message):
            train_hgm(graph, train_cfg, 0)

    def test_nan_parameter_raises_with_finite_loss(self, monkeypatch):
        # only one entry of the last parameter turns NaN, and the loss stays finite
        def nan_r_tt(params, graph, context):
            _, grad, s, pos = loss_and_grad(params, graph, context)
            grad[...] = 0.0
            grad[-params.d] = np.nan  # r_tt[0]: r_tt is the flat layout's last d entries
            return 1.0, grad, s, pos

        loss_and_grad = hgm._loss_and_grad
        monkeypatch.setattr(hgm, "_loss_and_grad", nan_r_tt)
        cfg = GenConfig(n_patients=12, n_labs=6, n_diagnoses=8, window_hours=3)
        graph = binned_graph(generate_synthetic(cfg, seed=8), synthetic_vocabulary(cfg), 3)
        message = r"after epoch 1/2 .*: mean loss 1, max \|parameter\| nan$"
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=message):
            train_hgm(graph, HgmTrainConfig(epochs=2, d=4), 1)

    def test_matches_public_sgd_loop(self):
        # train_hgm is plain SGD over the public sampler and gradient: each
        # epoch's shuffled visit order planned, then one sample_context +
        # ns_grad step per visit, untrainable visits skipped but counted in the
        # linear learning-rate schedule
        cfg = GenConfig(n_patients=12, n_labs=6, n_diagnoses=8, window_hours=3)
        records = generate_synthetic(cfg, seed=8) + [make_record("idle", [(0.5, 0, 1.0)], set())]
        graph = binned_graph(records, synthetic_vocabulary(cfg), 3)
        seed = 4
        train_cfg = HgmTrainConfig(epochs=3, d=6, learning_rate=0.05,
                                   sampler=SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                                         negatives_per_positive=2))
        trained = train_hgm(graph, train_cfg, seed)

        params = init_params(train_cfg.d, graph.n_labs, graph.n_diagnoses,
                             seed=derive_seed(seed, "hgm-init"))
        sampler = Sampler(graph, SamplerConfig(
            n_diagnoses=3, n_labs=3, n_copatients=3, negatives_per_positive=2),
            derive_seed(seed, "hgm-sampler"))
        shuffle = np.random.default_rng(derive_seed(seed, "hgm-shuffle"))
        centers = list(np.ndindex(graph.n_patients, graph.window_hours))
        total = train_cfg.epochs * len(centers)
        span = train_cfg.learning_rate - train_cfg.min_learning_rate
        step = skipped = 0
        for _ in range(train_cfg.epochs):
            order = shuffle.permutation(len(centers))
            sampler.plan([centers[i] for i in order])
            for i in order:
                lr = train_cfg.min_learning_rate + span * (1.0 - step / total)
                step += 1
                try:
                    ctx = sampler.sample_context(*centers[i])
                except UntrainableCenterError:
                    skipped += 1
                    continue
                grads = ns_grad(params, graph, ctx)
                for name in PARAM_FIELDS:
                    getattr(params, name)[...] -= lr * getattr(grads, name)
        assert skipped > 0
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(trained, name), getattr(params, name)), name

    def test_untrainable_centers_skipped(self, caplog):
        records = [make_record("p0", [(0.5, 0, 1.0)], set()),  # hour 1 empty, no dx
                   make_record("p1", [(0.5, 1, 2.0), (1.5, 1, 1.0)], {0})]
        graph = binned_graph(records, toy_vocab(), 2)
        cfg = HgmTrainConfig(epochs=2, d=2, sampler=SamplerConfig(
            n_diagnoses=1, n_labs=1, n_copatients=1, negatives_per_positive=1))
        with caplog.at_level("INFO", logger="hgm_ehr.hgm"):
            train_hgm(graph, cfg, 1)
        assert "skipped 2 untrainable center visits" in caplog.text


class TestEmbedPatientHour:
    """embed_hours over (P, T, n_labs) hours, oldest first."""

    def test_observed_hour_is_projection(self, toy_graph):
        graph, vocab, records = toy_graph
        params = random_params(4, 3, 3, seed=8)
        values, observed = bin_events(records, 2, unit_normalizer(3))
        out = embed_hours(params, values, observed)
        assert observed.any(axis=2).all()
        act = ACTIVATIONS[params.activation][0]
        for p in range(2):
            for t in range(2):
                assert np.array_equal(out[p, t], act(params.w_p @ values[p, t]))

    def test_missing_hour_uses_previous_plus_temporal(self):
        params = random_params(4, 3, 3, seed=9)
        values = np.array([[[0.1, -0.2, 0.3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        observed = np.array([[[True, True, True], [False] * 3, [False] * 3]])
        out = embed_hours(params, values, observed)
        assert np.array_equal(out[0, 1], out[0, 0] + params.r_tt)
        assert np.array_equal(out[0, 2], out[0, 1] + params.r_tt)

    def test_missing_hour_empty_snapshot_counts_as_missing(self):
        # missingness is read from the mask, not the values: an observed
        # all-zero hour is projected, an unobserved one is imputed
        params = random_params(4, 3, 3, seed=10, activation="sigmoid")
        values = np.array([[[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        observed = np.array([[[True] * 3, [False] * 3, [False, True, False]]])
        out = embed_hours(params, values, observed)
        assert np.array_equal(out[0, 1], out[0, 0] + params.r_tt)
        assert np.array_equal(out[0, 2], ACTIVATIONS["sigmoid"][0](params.w_p @ values[0, 2]))

    def test_missing_without_previous_is_zero(self):
        params = random_params(4, 3, 3, seed=11, activation="sigmoid")
        out = embed_hours(params, np.zeros((2, 2, 3)), np.zeros((2, 2, 3), dtype=bool))
        assert np.array_equal(out[:, 0], np.zeros((2, 4)))
        assert np.array_equal(out[:, 1], np.tile(params.r_tt, (2, 1)))


class TestParamsLayout:
    """Every HgmParams holds its six fields as views of one buffer, `flat`: W_i then W_d
    column by column, then W_p row by row, then r_ip, r_pd and r_tt."""

    @staticmethod
    def assert_views_flat(params):
        d, n_labs, n_diagnoses = params.d, params.n_labs, params.n_diagnoses
        for name in PARAM_FIELDS:
            assert np.shares_memory(getattr(params, name), params.flat), name
        params.flat[...] = np.arange(params.flat.size)
        columns = np.arange((n_labs + n_diagnoses) * d).reshape(-1, d).T
        tail = np.arange(columns.size, params.flat.size)
        want = {"w_i": columns[:, :n_labs], "w_d": columns[:, n_labs:],
                "w_p": tail[:d * n_labs].reshape(d, n_labs), "r_ip": tail[-3 * d:-2 * d],
                "r_pd": tail[-2 * d:-d], "r_tt": tail[-d:]}
        assert params.flat.size == (2 * n_labs + n_diagnoses + 3) * d
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(params, name), want[name]), name

    def test_constructor_copies_into_one_buffer(self):
        given = {name: np.full(getattr(random_params(3, 4, 5), name).shape, 7.0)
                 for name in PARAM_FIELDS}
        params = HgmParams(**given, activation="relu")
        for name in PARAM_FIELDS:
            assert not np.shares_memory(getattr(params, name), given[name]), name
        self.assert_views_flat(params)
        assert all((given[name] == 7.0).all() for name in PARAM_FIELDS)

    def test_init_load_and_replace_view_one_buffer(self, tmp_path):
        params = random_params(3, 4, 5, seed=1)
        save_params(params, tmp_path / "hgm.json")
        loaded = load_params(tmp_path / "hgm.json")
        replaced = dataclasses.replace(params, w_p=np.ones((3, 4)))
        assert np.array_equal(replaced.w_i, params.w_i)
        assert not np.shares_memory(replaced.flat, params.flat)
        for built in (params, loaded, replaced):
            self.assert_views_flat(built)

    def test_copies_and_gradients_view_their_own_buffer(self, toy_graph):
        graph, _, _ = toy_graph
        params = random_params(3, 3, 3, seed=7)
        ctx = make_context(graph, (0, 0), pos_labs=(lab_node(0),), neg_labs=((lab_node(2),),))
        grads = ns_grad(params, graph, ctx)
        copies = [copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))]
        for built in copies:
            assert built.activation == params.activation
            for name in PARAM_FIELDS:
                assert np.array_equal(getattr(built, name), getattr(params, name)), name
        for built in [grads] + copies:
            assert not np.shares_memory(built.flat, params.flat)
            self.assert_views_flat(built)

    @pytest.mark.parametrize("name, shape, message", [
        ("w_p", (3,), r"^w_p must be 2-D with a row, got shape \(3,\)$"),
        ("w_p", (0, 4), r"^w_p must be 2-D with a row, got shape \(0, 4\)$"),
        ("w_i", (3, 5), r"^w_i has shape \(3, 5\), expected \(3, 4\)$"),
        ("w_d", (4, 5), r"^w_d has shape \(4, 5\), expected \(3, 5\)$"),
        ("r_ip", (4,), r"^r_ip has shape \(4,\), expected \(3,\)$"),
        ("r_pd", (3, 1), r"^r_pd has shape \(3, 1\), expected \(3,\)$"),
        ("r_tt", (), r"^r_tt has shape \(\), expected \(3,\)$"),
        ("w_d", (15,), r"^w_d must be 2-D with a row, got shape \(15,\)$"),
    ], ids=["w_p", "w_p_no_rows", "w_i", "w_d", "r_ip", "r_pd", "r_tt", "w_d_1d"])
    def test_wrong_shape_refused_naming_the_field(self, name, shape, message):
        # w_p's shape (d, n_labs) and w_d's column count set the layout
        params = random_params(3, 4, 5)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(params, **{name: np.zeros(shape)})


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = random_params(5, 4, 6, activation="sigmoid", seed=13)
        path = tmp_path / "hgm.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.activation == "sigmoid"
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_stored_p_in_dim_still_loads(self, tmp_path):
        # older checkpoints also stored w_p's input width, always the lab count, as dims.p_in
        params = random_params(3, 4, 5, seed=2)
        path = tmp_path / "hgm.json"
        save_params(params, path)
        obj = json.loads(path.read_text())
        assert "p_in" not in obj["dims"]
        obj["dims"]["p_in"] = 4
        path.write_text(json.dumps(obj))
        loaded = load_params(path)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_unknown_activation_refused_when_built(self):
        with pytest.raises(ValueError, match=r"^unknown activation 'softsign'$"):
            init_params(2, 2, 2, activation="softsign")

    def test_unknown_activation_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "hgm.json"
        save_params(random_params(2, 2, 2, seed=1), path)
        obj = json.loads(path.read_text())
        obj["activation"] = "softsign"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as refused:
            load_params(path)
        assert str(refused.value) == (f"{path}: unknown activation 'softsign'; "
                                      "expected one of ['relu', 'sigmoid', 'tanh']")

    @pytest.mark.parametrize("field, edit, index", [
        ("w_p", lambda a: [a[0], [a[1][0], math.nan]] + a[2:], [1, 1]),
        ("r_tt", lambda a: a[:1] + [math.inf], [1]),
        ("w_d", lambda a: [[-math.inf] + a[0][1:]] + a[1:], [0, 0]),
    ], ids=["nan_w_p", "inf_r_tt", "minus_inf_w_d"])
    def test_non_finite_entry_refused_naming_the_file_and_array(self, tmp_path, field, edit,
                                                                index):
        path = tmp_path / "hgm.json"
        save_params(random_params(2, 2, 2, seed=1), path)
        obj = json.loads(path.read_text())
        obj["arrays"][field] = edit(obj["arrays"][field])
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as refused:
            load_params(path)
        assert str(refused.value) == (f"{path}: array {field} holds non-finite entries, "
                                      f"the first at index {index}")

    def test_wrong_kind_rejected(self, tmp_path):
        params = random_params(2, 2, 2, seed=1)
        save_params(params, tmp_path / "x.json")
        from hgm_ehr.checkpoint import load_container
        with pytest.raises(ValueError, match="kind"):
            load_container(tmp_path / "x.json", kind="cnn")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_params(tmp_path / "absent.json")

    def test_unsupported_version_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "hgm.json"
        save_params(random_params(2, 2, 2, seed=1), path)
        obj = json.loads(path.read_text())
        obj["version"] = 2
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as refused:
            load_params(path)
        assert str(refused.value) == f"{path}: unsupported checkpoint version 2"


def test_exact_and_sampled_losses_agree_in_ordering(toy_graph):
    """Settings that lower the full-softmax loss also lower the sampled loss
    in expectation (paired one-sided z-test at the 5% level).

    The settings are snapshots along a descent trajectory of the exact
    loss itself, so they span a meaningful range of Eq.-5 values.
    """
    from conftest import exact_loss_fd_step, total_exact_loss

    graph, _, _ = toy_graph
    centers = [(p, h) for p in range(2) for h in range(2)]
    params = random_params(4, 3, 3, seed=2, scale=0.8)
    snapshots = []
    for step in range(121):
        if step % 40 == 0:
            snapshots.append(copy.deepcopy(params))
        if step < 120:
            exact_loss_fd_step(params, graph, lr=0.03)

    sampler = Sampler(graph, SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                           negatives_per_positive=3), 77)
    contexts = [sampler.sample_context(*centers[i % len(centers)]) for i in range(400)]

    exact_totals = [total_exact_loss(p, graph) for p in snapshots]
    sampled = np.array([[ns_loss(p, graph, ctx) for ctx in contexts] for p in snapshots])

    compared = 0
    for i in range(len(snapshots)):
        for j in range(i + 1, len(snapshots)):
            diffs = sampled[i] - sampled[j]
            se = diffs.std(ddof=1) / math.sqrt(len(diffs))
            if se == 0 or abs(diffs.mean()) / se < 1.645:
                continue  # not significant at 5%, no ordering claim
            compared += 1
            assert (diffs.mean() < 0) == (exact_totals[i] < exact_totals[j])
    assert compared >= 3


def scatter_add_ns_grad(params, graph, context, scores=None):
    """ns_grad with lab/diagnosis gradients scattered by np.add.at into zeros,
    one relation at a time; each relation's (scores, targets) go to `scores`."""
    act, deriv = ACTIVATIONS[params.activation]
    x_u = graph.values[context.center]
    c_u = act(params.w_p @ x_u)
    grads = HgmParams(*(np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS),
                      params.activation)
    dc_u = np.zeros(params.d)
    for relation, (index, y) in zip(Relation, context.terms):
        if not y.size:
            continue
        if relation is Relation.TESTED:
            c_v = act(params.w_i[:, index])
            c_vt = c_v + params.r_ip[:, None]
            s = c_vt.T @ c_u
            if scores is not None:
                scores.append((s, y))
            g = hgm._sigmoid_act(s) - y
            grads.r_ip += float(g.sum()) * c_u
            dc_u += c_vt @ g
            np.add.at(grads.w_i.T, index, ((c_u[:, None] * g[None, :]) * deriv(c_v)).T)
            continue
        if relation is Relation.DIAGNOSED:
            c_v = act(params.w_d[:, index])
            c_ut = c_u + params.r_pd
        else:
            x_v = graph.values[index[:, 0], index[:, 1]].T
            c_v = act(params.w_p @ x_v)
            c_ut = c_u + params.r_tt if relation is Relation.TEMPORAL else c_u
        s = c_v.T @ c_ut
        if scores is not None:
            scores.append((s, y))
        g = hgm._sigmoid_act(s) - y
        c_vg = c_v @ g
        dc_u += c_vg
        d_cv = (c_ut[:, None] * g[None, :]) * deriv(c_v)
        if relation is Relation.DIAGNOSED:
            grads.r_pd += c_vg
            np.add.at(grads.w_d.T, index, d_cv.T)
        else:
            if relation is Relation.TEMPORAL:
                grads.r_tt += c_vg
            grads.w_p += d_cv @ x_v.T
    grads.w_p += np.outer(dc_u * deriv(c_u), x_u)
    return grads


class TestNsGradMatchesScatterAdd:
    @pytest.mark.parametrize("d", [16, 128])
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu"])
    def test_sampled_and_repeated_contexts(self, d, activation):
        cfg = GenConfig(n_patients=12, n_labs=5, n_diagnoses=6, window_hours=3)
        graph = binned_graph(generate_synthetic(cfg, seed=d), synthetic_vocabulary(cfg), 3)
        params = random_params(d, 5, 6, activation=activation, seed=d + 1, scale=2.0 / d)
        sampler = Sampler(graph, SamplerConfig(n_diagnoses=4, n_labs=4, n_copatients=2,
                                               negatives_per_positive=3), d)
        contexts = []
        for p, h in np.ndindex(graph.n_patients, graph.window_hours):
            try:
                contexts.append(sampler.sample_context(p, h))
            except UntrainableCenterError:
                pass
        contexts.append(make_context(
            graph, (0, 1), pos_labs=(lab_node(1), lab_node(1), lab_node(4)),
            neg_labs=((lab_node(1), lab_node(0)), (lab_node(4),), (lab_node(1), lab_node(1))),
            pos_diagnoses=(dx_node(2), dx_node(2)), neg_diagnoses=((dx_node(5),), (dx_node(2),))))
        repeated = 0
        for ctx in contexts:
            for t in ctx.terms[:2]:
                repeated += len(t.index) > len(np.unique(t.index))
            got, want = ns_grad(params, graph, ctx), scatter_add_ns_grad(params, graph, ctx)
            for name in PARAM_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert len(contexts) > 20 and repeated > 20

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu"])
    def test_contexts_with_empty_relations(self, activation):
        # Hour-0 centers have no temporal term, a diagnosis-free patient no
        # diagnosis or co-patient term, an hour with no observed lab no lab
        # term, and diagnoses only the center's patient carries no co-patient.
        # A fully tested hour leaves lab positives without negatives, and two
        # patients sharing every diagnosis leave patient-hour positives without.
        config = SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=2,
                               negatives_per_positive=2)
        empty, unpaired, checked = set(), set(), 0
        for graph in edge_case_graphs():
            params = random_params(4, graph.n_labs, graph.n_diagnoses,
                                   activation=activation, seed=5, scale=0.5)
            sampler = Sampler(graph, config, 4)
            for p, h in np.ndindex(graph.n_patients, graph.window_hours):
                try:
                    ctx = sampler.sample_context(p, h)
                except UntrainableCenterError:
                    continue
                relations = []
                want = scatter_add_ns_grad(params, graph, ctx, relations)
                got = ns_grad(params, graph, ctx)
                for name in PARAM_FIELDS:
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                _, _, scores, pos = hgm._loss_and_grad(params, graph, ctx)
                assert np.array_equal(scores[pos],
                                      np.concatenate([s[y == 1.0] for s, y in relations]))
                assert np.array_equal(scores[~pos],
                                      np.concatenate([s[y == 0.0] for s, y in relations]))
                expected = sum(float(np.logaddexp(0.0, -s[y == 1.0]).sum())
                               + float(np.logaddexp(0.0, s[y == 0.0]).sum()) for s, y in relations)
                assert ns_loss(params, graph, ctx) == pytest.approx(expected, rel=1e-12)
                empty.update(r for r, t in zip(Relation, ctx.terms) if not t.target.size)
                unpaired.update(r for r, t in zip(Relation, ctx.terms)
                                if t.target.size and t.target.all())
                checked += 1
        assert empty == set(Relation)
        assert unpaired == {Relation.TESTED, Relation.CO_PATIENT, Relation.TEMPORAL}
        assert checked > 15


def assert_step_matches_oracle(params, graph, context):
    """_loss_and_grad equals the oracle step: every gradient bit, the scores and the
    positive mask; the loss, summed from the sigmoid's exponentials, to 1e-12."""
    loss, grad, scores, positive = hgm._loss_and_grad(params, graph, context)
    want_loss, want, want_scores, want_positive = oracles.loss_and_grad(params, graph, context)
    assert grad.shape == params.flat.shape
    for name, got in zip(PARAM_FIELDS, hgm._views(grad, params.d, params.n_labs)):
        assert np.array_equal(got, getattr(want, name)), name
    assert np.array_equal(scores, want_scores) and np.array_equal(positive, want_positive)
    assert loss == pytest.approx(want_loss, rel=1e-12)


def context_cases(graph, context):
    """The edge cases a context exercises, by name."""
    tested, diagnosed, copatients, temporal = (t.target for t in context.terms)
    cases = {"no diagnoses": not diagnosed.size, "no observed labs": not tested.size,
             "h = 0": context.center[1] == 0, "window_hours = 1": graph.window_hours == 1,
             "no shareable diagnosis drawn": diagnosed.size and not copatients.size,
             "all labs observed": tested.size and tested.all(),
             "every diagnosis held": diagnosed.size and diagnosed.all(),
             "shares a diagnosis with everyone": (copatients.size and copatients.all()
                                                  or temporal.size and temporal.all())}
    return {name for name, seen in cases.items() if seen}


class TestStepMatchesOracle:
    # Also run under OPENBLAS_CORETYPE=Haswell and =Sandybridge in CI: the step's
    # products keep the oracle's operand layouts on every kernel set.
    @pytest.mark.parametrize("d", [2, 16, 128])
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu"])
    def test_sampled_contexts_and_edge_cases(self, d, activation):
        cfg = GenConfig(n_patients=12, n_labs=5, n_diagnoses=6, window_hours=3)
        synthetic = binned_graph(generate_synthetic(cfg, seed=d), synthetic_vocabulary(cfg), 3)
        config = SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=2, negatives_per_positive=2)
        seen, checked = set(), 0
        for seed, graph in enumerate([synthetic] + awkward_graphs()):
            params = random_params(d, graph.n_labs, graph.n_diagnoses, activation=activation,
                                   seed=seed, scale=2.0 / math.sqrt(d))
            sampler = Sampler(graph, config, seed)
            for p, h in np.ndindex(graph.n_patients, graph.window_hours):
                try:
                    context = sampler.sample_context(p, h)
                except UntrainableCenterError:
                    continue
                assert_step_matches_oracle(params, graph, context)
                seen |= context_cases(graph, context)
                checked += 1
        # repeated columns and rows, and a patient-hour term without negatives
        params = random_params(d, 5, 6, activation=activation, seed=99, scale=2.0 / math.sqrt(d))
        assert_step_matches_oracle(params, synthetic, make_context(
            synthetic, (0, 1), pos_labs=(lab_node(1), lab_node(1), lab_node(4)),
            neg_labs=((lab_node(1), lab_node(0)), (lab_node(4),), (lab_node(1), lab_node(1))),
            pos_diagnoses=(dx_node(2), dx_node(2)), neg_diagnoses=((dx_node(5),), (dx_node(2),)),
            pos_patients=(ph(3, 2), ph(3, 2)), neg_patients=((ph(3, 2), ph(4, 0)), ()),
            pos_temporal=ph(0, 0)))
        assert seen == {"no diagnoses", "no observed labs", "h = 0", "window_hours = 1",
                        "no shareable diagnosis drawn", "all labs observed",
                        "every diagnosis held", "shares a diagnosis with everyone"}
        assert checked > 100

    @pytest.mark.parametrize("d, epochs", [(16, 2), (128, 1)])
    def test_train_hgm_equals_an_oracle_loop_on_desk_fold_0(self, d, epochs):
        # sample_context, the oracle step and six updates, visit by visit
        graph, experiment, seed = desk_fold_0()
        config = dataclasses.replace(experiment.hgm, d=d, epochs=epochs)
        trained = train_hgm(graph, config, seed)

        params = init_params(d, graph.n_labs, graph.n_diagnoses, seed=derive_seed(seed, "hgm-init"))
        sampler = Sampler(graph, config.sampler, derive_seed(seed, "hgm-sampler"))
        shuffle = np.random.default_rng(derive_seed(seed, "hgm-shuffle"))
        n_centers = graph.n_patients * graph.window_hours
        span = config.learning_rate - config.min_learning_rate
        step = 0
        for _ in range(epochs):
            centers = np.stack(np.divmod(shuffle.permutation(n_centers), graph.window_hours),
                               axis=1)
            sampler.plan(centers)
            for p, h in centers.tolist():
                lr = config.min_learning_rate + span * (1.0 - step / (epochs * n_centers))
                step += 1
                try:
                    context = sampler.sample_context(p, h)
                except UntrainableCenterError:
                    continue
                grads = oracles.loss_and_grad(params, graph, context)[1]
                for name in PARAM_FIELDS:
                    getattr(params, name)[...] -= lr * getattr(grads, name)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(trained, name), getattr(params, name)), name
