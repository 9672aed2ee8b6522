import json
import math

import numpy as np
import pytest

from hgm_ehr import hgm
from hgm_ehr.graph import NodeId, NodeType, all_nodes, neighbors
from hgm_ehr.hgm import (HgmParams, HgmTrainConfig, Relation, context_scores, embed_hours,
                         embed_node, exact_softmax_loss, init_params, load_params, ns_grad,
                         ns_loss, project, save_params, score, softmax_context_loss, train_hgm)
from hgm_ehr.ingest import GenConfig, bin_events, generate_synthetic, synthetic_vocabulary
from hgm_ehr.sampler import Sampler, SamplerConfig, UntrainableCenterError
from hgm_ehr.seeds import derive_seed

from conftest import binned_graph, make_context, make_record, toy_vocab, unit_normalizer
from test_sampler import edge_case_graphs

PARAM_FIELDS = ("w_p", "w_i", "w_d", "r_ip", "r_pd", "r_tt")


def zero_params(d=2, p_in=2, n_labs=2, n_diagnoses=2, activation="tanh"):
    return HgmParams(
        w_p=np.zeros((d, p_in)), w_i=np.zeros((d, n_labs)), w_d=np.zeros((d, n_diagnoses)),
        r_ip=np.zeros(d), r_pd=np.zeros(d), r_tt=np.zeros(d), activation=activation,
    )


def random_params(d, p_in, n_labs, n_diagnoses, activation="tanh", seed=0, scale=1.0):
    params = init_params(d, p_in, n_labs, n_diagnoses, activation=activation, seed=seed)
    for name in PARAM_FIELDS:
        getattr(params, name)[...] *= scale * d  # undo the 1/d init scale
    return params


def lab_node(i):
    return NodeId(NodeType.LAB, i)


def dx_node(j):
    return NodeId(NodeType.DIAGNOSIS, j)


def ph(p, h):
    return NodeId(NodeType.PATIENT_HOUR, (p, h))


class TestProject:
    def test_zero_matrix_tanh(self):
        params = zero_params()
        out = project(params, NodeType.LAB, [1.0, 0.0])
        assert np.array_equal(out, np.zeros(2))

    def test_zero_matrix_sigmoid(self):
        params = zero_params(activation="sigmoid")
        out = project(params, NodeType.DIAGNOSIS, [1.0, 1.0])
        assert np.array_equal(out, np.full(2, 0.5))

    def test_identity_matrix_tanh_hand_value(self):
        params = zero_params()
        params.w_p[...] = np.eye(2)
        out = project(params, NodeType.PATIENT_HOUR, [0.5, -0.5])
        assert out == pytest.approx([0.46211715726000974, -0.46211715726000974], abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="input dim"):
            project(zero_params(), NodeType.LAB, [1.0, 2.0, 3.0])


class TestScore:
    def test_all_zero_is_zero(self):
        params = zero_params()
        for rel in Relation:
            assert score(params, np.zeros(2), rel, np.zeros(2)) == 0.0

    def test_lab_hand_case(self):
        params = zero_params()
        params.r_ip[...] = [1.0, 0.0]
        assert score(params, [1.0, 0.0], Relation.TESTED, [0.0, 1.0]) == pytest.approx(1.0)

    def test_copatient_self_similarity(self):
        params = zero_params()
        e = np.array([0.3, -0.7])
        assert score(params, e, Relation.CO_PATIENT, e) == pytest.approx(float(e @ e))

    def test_diagnosed_and_temporal_forms(self):
        params = zero_params()
        params.r_pd[...] = [0.5, -0.5]
        params.r_tt[...] = [-1.0, 2.0]
        c_u = np.array([1.0, 2.0])
        c_v = np.array([3.0, 4.0])
        assert score(params, c_u, Relation.DIAGNOSED, c_v) == pytest.approx(
            float((c_u + params.r_pd) @ c_v))
        assert score(params, c_u, Relation.TEMPORAL, c_v) == pytest.approx(
            float((c_u + params.r_tt) @ c_v))


class TestExactSoftmaxLoss:
    def test_single_candidate_softmax_is_zero(self):
        for s in (-2.0, 0.0, 3.7):
            assert softmax_context_loss([s], [s]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_embeddings_give_log_n(self, toy_graph):
        graph, _, _ = toy_graph
        params = zero_params(d=4, p_in=3, n_labs=3, n_diagnoses=3)
        n_vertices = len(all_nodes(graph))
        center = ph(0, 1)
        n_neighbors = sum(
            len(neighbors(graph, center, t))
            for t in (NodeType.LAB, NodeType.DIAGNOSIS, NodeType.PATIENT_HOUR)
        )
        expected = n_neighbors * math.log(n_vertices)
        assert exact_softmax_loss(params, graph, center) == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_oracle(self, toy_graph):
        graph, _, _ = toy_graph
        params = random_params(4, 3, 3, 3, seed=5, scale=0.8)
        for center in [ph(p, h) for p in range(2) for h in range(2)]:
            # independent re-derivation: loop every candidate vertex with the
            # relation form of its type, then every neighbor
            c_u = embed_node(params, graph, center)
            z = 0.0
            for node in all_nodes(graph):
                c_v = embed_node(params, graph, node)
                if node.type is NodeType.LAB:
                    z += math.exp(float(np.dot(c_v + params.r_ip, c_u)))
                elif node.type is NodeType.DIAGNOSIS:
                    z += math.exp(float(np.dot(c_u + params.r_pd, c_v)))
                else:
                    z += math.exp(float(np.dot(c_u, c_v)))
            expected = 0.0
            for t, rel in ((NodeType.LAB, Relation.TESTED),
                           (NodeType.DIAGNOSIS, Relation.DIAGNOSED),
                           (NodeType.PATIENT_HOUR, Relation.CO_PATIENT)):
                for nb in neighbors(graph, center, t):
                    s = score(params, c_u, rel, embed_node(params, graph, nb))
                    expected -= s - math.log(z)
            assert exact_softmax_loss(params, graph, center) == pytest.approx(expected, rel=1e-10)


class TestNsLoss:
    def test_zero_params_one_pos_one_neg(self, toy_graph):
        graph, _, _ = toy_graph
        params = zero_params(d=2, p_in=3, n_labs=3, n_diagnoses=3)
        ctx = make_context((0, 0), pos_labs=(lab_node(0),), neg_labs=((lab_node(2),),))
        assert ns_loss(params, graph, ctx) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_zero_params_closed_form(self, toy_graph):
        graph, _, _ = toy_graph
        params = zero_params(d=3, p_in=3, n_labs=3, n_diagnoses=3)
        sampler = Sampler(graph, SamplerConfig(n_diagnoses=4, n_labs=4, n_copatients=4,
                                               negatives_per_positive=3, seed=2))
        ctx = sampler.sample_context(0, 1)
        n_pos = ctx.n_positives()
        n_neg = sum(len(negs) for negs in
                    ctx.neg_diagnoses + ctx.neg_labs + ctx.neg_patients) + len(ctx.neg_temporal)
        assert ns_loss(params, graph, ctx) == pytest.approx((n_pos + n_neg) * math.log(2), rel=1e-12)

    def test_matches_independent_reimplementation(self, shared_dx_graph):
        graph, _, _ = shared_dx_graph
        params = random_params(4, 4, 4, 4, seed=11, scale=1.5)
        sampler = Sampler(graph, SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                               negatives_per_positive=2, seed=3))
        for center in (ph(0, 0), ph(0, 1), ph(1, 1)):
            ctx = sampler.sample_context(*center.index)
            c_u = embed_node(params, graph, center)

            def pair_loss(node, rel, positive):
                s = score(params, c_u, rel, embed_node(params, graph, node))
                return -math.log(1.0 / (1.0 + math.exp(s if not positive else -s)))

            expected = 0.0
            for pos, negs in zip(ctx.pos_labs, ctx.neg_labs):
                expected += pair_loss(pos, Relation.TESTED, True)
                expected += sum(pair_loss(n, Relation.TESTED, False) for n in negs)
            for pos, negs in zip(ctx.pos_diagnoses, ctx.neg_diagnoses):
                expected += pair_loss(pos, Relation.DIAGNOSED, True)
                expected += sum(pair_loss(n, Relation.DIAGNOSED, False) for n in negs)
            for pos, negs in zip(ctx.pos_patients, ctx.neg_patients):
                expected += pair_loss(pos, Relation.CO_PATIENT, True)
                expected += sum(pair_loss(n, Relation.CO_PATIENT, False) for n in negs)
            if ctx.pos_temporal is not None:
                expected += pair_loss(ctx.pos_temporal, Relation.TEMPORAL, True)
                expected += sum(pair_loss(n, Relation.TEMPORAL, False) for n in ctx.neg_temporal)
            assert ns_loss(params, graph, ctx) == pytest.approx(expected, rel=1e-10)

    def test_nonnegative(self, shared_dx_graph):
        graph, _, _ = shared_dx_graph
        sampler = Sampler(graph, SamplerConfig(n_diagnoses=2, n_labs=2, n_copatients=2,
                                               negatives_per_positive=2, seed=4))
        for seed in range(8):
            params = random_params(3, 4, 4, 4, seed=seed, scale=2.0)
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
        n_copatients=int(rng.integers(1, 4)), negatives_per_positive=int(rng.integers(1, 4)),
        seed=int(rng.integers(0, 2**31))))
    ctx = sampler.sample_context(int(rng.integers(0, graph.n_patients)),
                                 int(rng.integers(0, graph.window_hours)))
    params = random_params(int(rng.integers(2, 5)), cfg.n_labs, cfg.n_labs, cfg.n_diagnoses,
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
                                               negatives_per_positive=2, seed=5))
        grads = ns_grad(params, graph, sampler.sample_context(0, 1))
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(grads, name), np.zeros_like(getattr(params, name)))

    def test_duplicated_positive_doubles_contribution(self, toy_graph):
        graph, _, _ = toy_graph
        params = random_params(3, 3, 3, 3, seed=6, scale=1.0)
        single = make_context((0, 1), pos_labs=(lab_node(0),), neg_labs=((lab_node(2),),))
        doubled = make_context((0, 1), pos_labs=(lab_node(0), lab_node(0)),
                               neg_labs=((lab_node(2),), (lab_node(2),)))
        g1 = ns_grad(params, graph, single)
        g2 = ns_grad(params, graph, doubled)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(g2, name), 2.0 * getattr(g1, name))

    def test_untouched_entries_zero(self, toy_graph):
        graph, _, _ = toy_graph
        params = random_params(3, 3, 3, 3, seed=7, scale=1.0)
        ctx = make_context((0, 0), pos_labs=(lab_node(0),), neg_labs=((lab_node(2),),))
        grads = ns_grad(params, graph, ctx)
        assert np.array_equal(grads.w_i[:, 1], np.zeros(3))  # lab 1 not in context
        assert np.array_equal(grads.w_d, np.zeros_like(grads.w_d))
        assert np.array_equal(grads.r_pd, np.zeros(3))
        assert np.array_equal(grads.r_tt, np.zeros(3))


class TestTrainHgm:
    def test_zero_epochs_returns_initialization(self, toy_graph):
        graph, _, _ = toy_graph
        cfg = HgmTrainConfig(epochs=0, d=4, seed=9)
        params = train_hgm(graph, cfg)
        expected = init_params(4, 3, 3, 3, activation="tanh",
                               seed=derive_seed(9, "hgm-init"))
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(params, name), getattr(expected, name))

    def test_same_seed_bit_identical(self, shared_dx_graph):
        graph, _, _ = shared_dx_graph
        cfg = HgmTrainConfig(epochs=3, d=4, seed=12, learning_rate=0.1,
                             sampler=SamplerConfig(n_diagnoses=2, n_labs=2, n_copatients=2,
                                                   negatives_per_positive=2))
        a = train_hgm(graph, cfg)
        b = train_hgm(graph, cfg)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_epoch_loss_non_increasing_early(self, toy_graph):
        graph, _, _ = toy_graph
        losses = []
        cfg = HgmTrainConfig(epochs=10, d=8, seed=3, learning_rate=0.08,
                             sampler=SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                                   negatives_per_positive=3))
        train_hgm(graph, cfg, on_epoch=lambda e, loss: losses.append(loss))
        assert len(losses) == 10
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier * 1.05

    def test_divergence_raises(self):
        # relu at lr = 50 diverges: from epoch 9 the scores overflow and the
        # loss is inf while |w_p| ~ 3.6e197 is still finite, which used to be
        # returned with only a RuntimeWarning
        cfg = GenConfig(n_patients=12, n_labs=6, n_diagnoses=8, window_hours=3)
        graph = binned_graph(generate_synthetic(cfg, seed=8), synthetic_vocabulary(cfg), 3)
        train_cfg = HgmTrainConfig(epochs=12, d=4, seed=1, learning_rate=50.0, activation="relu")
        message = r"^hgm: non-finite .* epoch \d+/12 \(step \d+ of 432\)"
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=message):
            train_hgm(graph, train_cfg)

    def test_blow_up_that_collapses_raises(self):
        # relu at lr = 50 on this graph: the epoch losses go 3.5e64, 2.6e124,
        # 1.1e147 and then stay at a finite 115, and |w_p| ~ 7.4e75 used to be
        # returned; the first epoch already leaves a parameter near 9.5e36
        cfg = GenConfig(n_patients=20, n_labs=8, n_diagnoses=10, window_hours=4)
        graph = binned_graph(generate_synthetic(cfg, seed=8), synthetic_vocabulary(cfg), 4)
        train_cfg = HgmTrainConfig(epochs=8, learning_rate=50.0, d=4, activation="relu")
        message = r"^hgm: non-finite .* beyond 1e\+06, after epoch \d+/8 \(step \d+ of \d+\)"
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=message):
            train_hgm(graph, train_cfg)

    def test_nan_parameter_raises_with_finite_loss(self, monkeypatch):
        # only one entry of the last parameter turns NaN, and the loss stays finite
        def nan_r_tt(params, graph, context):
            _, grads, s, pos = loss_and_grad(params, graph, context)
            for name in PARAM_FIELDS:
                getattr(grads, name)[...] = 0.0
            grads.r_tt[0] = np.nan
            return 1.0, grads, s, pos

        loss_and_grad = hgm._loss_and_grad
        monkeypatch.setattr(hgm, "_loss_and_grad", nan_r_tt)
        cfg = GenConfig(n_patients=12, n_labs=6, n_diagnoses=8, window_hours=3)
        graph = binned_graph(generate_synthetic(cfg, seed=8), synthetic_vocabulary(cfg), 3)
        message = r"after epoch 1/2 .*: mean loss 1, max \|parameter\| nan$"
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=message):
            train_hgm(graph, HgmTrainConfig(epochs=2, d=4, seed=1))

    def test_matches_public_sgd_loop(self):
        # train_hgm is plain SGD over the public sampler and gradient: one
        # sample_context + ns_grad step per visit, untrainable visits skipped
        # but counted in the linear learning-rate schedule
        cfg = GenConfig(n_patients=12, n_labs=6, n_diagnoses=8, window_hours=3)
        records = generate_synthetic(cfg, seed=8) + [make_record("idle", [(0.5, 0, 1.0)], set())]
        graph = binned_graph(records, synthetic_vocabulary(cfg), 3)
        train_cfg = HgmTrainConfig(epochs=3, d=6, seed=4, learning_rate=0.05,
                                   sampler=SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                                         negatives_per_positive=2))
        trained = train_hgm(graph, train_cfg)

        params = init_params(train_cfg.d, graph.n_labs, graph.n_labs, graph.n_diagnoses,
                             seed=derive_seed(train_cfg.seed, "hgm-init"))
        sampler = Sampler(graph, SamplerConfig(
            n_diagnoses=3, n_labs=3, n_copatients=3, negatives_per_positive=2,
            seed=derive_seed(train_cfg.seed, "hgm-sampler")))
        shuffle = np.random.default_rng(derive_seed(train_cfg.seed, "hgm-shuffle"))
        centers = list(graph.patient_hours())
        total = train_cfg.epochs * len(centers)
        span = train_cfg.learning_rate - train_cfg.min_learning_rate
        step = skipped = 0
        for _ in range(train_cfg.epochs):
            for i in shuffle.permutation(len(centers)):
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
        cfg = HgmTrainConfig(epochs=2, d=2, seed=1, sampler=SamplerConfig(
            n_diagnoses=1, n_labs=1, n_copatients=1, negatives_per_positive=1))
        with caplog.at_level("INFO", logger="hgm_ehr.hgm"):
            train_hgm(graph, cfg)
        assert "skipped 2 untrainable center visits" in caplog.text


class TestEmbedPatientHour:
    """embed_hours over (P, T, n_labs) hours, oldest first."""

    def test_observed_hour_is_projection(self, toy_graph):
        graph, vocab, records = toy_graph
        params = random_params(4, 3, 3, 3, seed=8)
        values, observed = bin_events(records, 2, unit_normalizer(3))
        out = embed_hours(params, values, observed)
        assert observed.any(axis=2).all()
        for p in range(2):
            for t in range(2):
                assert np.array_equal(out[p, t],
                                      project(params, NodeType.PATIENT_HOUR, values[p, t]))

    def test_missing_hour_uses_previous_plus_temporal(self):
        params = random_params(4, 3, 3, 3, seed=9)
        values = np.array([[[0.1, -0.2, 0.3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        observed = np.array([[[True, True, True], [False] * 3, [False] * 3]])
        out = embed_hours(params, values, observed)
        assert np.array_equal(out[0, 1], out[0, 0] + params.r_tt)
        assert np.array_equal(out[0, 2], out[0, 1] + params.r_tt)

    def test_missing_hour_empty_snapshot_counts_as_missing(self):
        # missingness is read from the mask, not the values: an observed
        # all-zero hour is projected, an unobserved one is imputed
        params = random_params(4, 3, 3, 3, seed=10, activation="sigmoid")
        values = np.array([[[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        observed = np.array([[[True] * 3, [False] * 3, [False, True, False]]])
        out = embed_hours(params, values, observed)
        assert np.array_equal(out[0, 1], out[0, 0] + params.r_tt)
        assert np.array_equal(out[0, 2], project(params, NodeType.PATIENT_HOUR, values[0, 2]))

    def test_missing_without_previous_is_zero(self):
        params = random_params(4, 3, 3, 3, seed=11, activation="sigmoid")
        out = embed_hours(params, np.zeros((2, 2, 3)), np.zeros((2, 2, 3), dtype=bool))
        assert np.array_equal(out[:, 0], np.zeros((2, 4)))
        assert np.array_equal(out[:, 1], np.tile(params.r_tt, (2, 1)))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = random_params(5, 4, 4, 6, activation="sigmoid", seed=13)
        path = tmp_path / "hgm.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.activation == "sigmoid"
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_unknown_activation_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "hgm.json"
        save_params(random_params(2, 2, 2, 2, seed=1), path)
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
        save_params(random_params(2, 2, 2, 2, seed=1), path)
        obj = json.loads(path.read_text())
        obj["arrays"][field] = edit(obj["arrays"][field])
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as refused:
            load_params(path)
        assert str(refused.value) == (f"{path}: array {field} holds non-finite entries, "
                                      f"the first at index {index}")

    def test_wrong_kind_rejected(self, tmp_path):
        params = random_params(2, 2, 2, 2, seed=1)
        save_params(params, tmp_path / "x.json")
        from hgm_ehr.checkpoint import load_container
        with pytest.raises(ValueError, match="kind"):
            load_container(tmp_path / "x.json", kind="cnn")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_params(tmp_path / "absent.json")


def test_exact_and_sampled_losses_agree_in_ordering(toy_graph):
    """Settings that lower the full-softmax loss also lower the sampled loss
    in expectation (paired one-sided z-test at the 5% level).

    The settings are snapshots along a descent trajectory of the exact
    loss itself, so they span a meaningful range of Eq.-5 values.
    """
    from conftest import exact_loss_fd_step, total_exact_loss

    graph, _, _ = toy_graph
    centers = [(p, h) for p in range(2) for h in range(2)]
    params = random_params(4, 3, 3, 3, seed=2, scale=0.8)
    snapshots = []
    for step in range(121):
        if step % 40 == 0:
            snapshots.append(params.copy())
        if step < 120:
            exact_loss_fd_step(params, graph, lr=0.03)

    sampler = Sampler(graph, SamplerConfig(n_diagnoses=3, n_labs=3, n_copatients=3,
                                           negatives_per_positive=3, seed=77))
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
    act, deriv = params.activation_fns()
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
        params = random_params(d, 5, 5, 6, activation=activation, seed=d + 1, scale=2.0 / d)
        sampler = Sampler(graph, SamplerConfig(n_diagnoses=4, n_labs=4, n_copatients=2,
                                               negatives_per_positive=3, seed=d))
        contexts = []
        for p, h in graph.patient_hours():
            try:
                contexts.append(sampler.sample_context(p, h))
            except UntrainableCenterError:
                pass
        contexts.append(make_context(
            (0, 1), pos_labs=(lab_node(1), lab_node(1), lab_node(4)),
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
                               negatives_per_positive=2, seed=4)
        empty, unpaired, checked = set(), set(), 0
        for graph in edge_case_graphs():
            params = random_params(4, graph.n_labs, graph.n_labs, graph.n_diagnoses,
                                   activation=activation, seed=5, scale=0.5)
            sampler = Sampler(graph, config)
            for p, h in graph.patient_hours():
                try:
                    ctx = sampler.sample_context(p, h)
                except UntrainableCenterError:
                    continue
                relations = []
                want = scatter_add_ns_grad(params, graph, ctx, relations)
                got = ns_grad(params, graph, ctx)
                for name in PARAM_FIELDS:
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                pos, neg = context_scores(params, graph, ctx)
                assert np.array_equal(pos, np.concatenate([s[y == 1.0] for s, y in relations]))
                assert np.array_equal(neg, np.concatenate([s[y == 0.0] for s, y in relations]))
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
