import dataclasses
import functools

import numpy as np
import pytest

import hgm_ehr.sampler as sampler_module
from hgm_ehr.evaluate import plan_folds
from hgm_ehr.graph import HeteroGraph, NodeId, NodeType, build_graph
from hgm_ehr.hgm import train_hgm
from hgm_ehr.ingest import (GenConfig, bin_events, fit_normalizer, generate_synthetic,
                            synthetic_vocabulary)
from hgm_ehr.sampler import Sampler, SamplerConfig, UntrainableCenterError
from hgm_ehr.seeds import derive_seed

from conftest import binned_graph, make_context, make_record, toy_vocab, traced_peak
from oracles import ContextOracle, neighbors


def ph(p, h):
    return NodeId(NodeType.PATIENT_HOUR, (p, h))


def test_default_context_shape(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    sampler = Sampler(graph, SamplerConfig(), 1)
    ctx = sampler.sample_context(0, 1)
    assert len(ctx.pos_diagnoses) == 10
    assert len(ctx.pos_labs) == 10
    assert len(ctx.pos_patients) == 10
    assert ctx.pos_temporal == ph(0, 0)
    assert ctx.n_positives() == 31
    for negs in ctx.neg_diagnoses + ctx.neg_labs:
        assert len(negs) == 5


def test_hour_zero_has_no_temporal_positive(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    sampler = Sampler(graph, SamplerConfig(), 1)
    ctx = sampler.sample_context(0, 0)
    assert ctx.pos_temporal is None
    assert ctx.neg_temporal == ()


def test_single_neighbor_repeats(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    sampler = Sampler(graph, SamplerConfig(), 2)
    # p2 has exactly one diagnosis and one tested lab at hour 0
    ctx = sampler.sample_context(2, 0)
    assert set(ctx.pos_diagnoses) == {NodeId(NodeType.DIAGNOSIS, 3)}
    assert len(ctx.pos_diagnoses) == 10
    assert set(ctx.pos_labs) == {NodeId(NodeType.LAB, 3)}


def test_untrainable_center_raises():
    # patient with no diagnoses and an empty hour
    records = [make_record("p0", [(0.5, 0, 1.0)], set())]
    graph = binned_graph(records, toy_vocab(), 2)
    sampler = Sampler(graph, SamplerConfig(), 0)
    with pytest.raises(UntrainableCenterError):
        sampler.sample_context(0, 1)


def test_copatients_come_from_sampled_diagnoses(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    sampler = Sampler(graph, SamplerConfig(), 3)
    ctx = sampler.sample_context(0, 0)
    # p0's only shareable diagnosis is 1 (carried by p1); diagnosis 0 has no
    # other carrier, so every co-patient must belong to p1
    assert len(ctx.pos_patients) == 10
    assert all(n.index[0] == 1 for n in ctx.pos_patients)


def test_copatient_pool_may_be_empty():
    records = [make_record("p0", [(0.5, 0, 1.0)], {0}),
               make_record("p1", [(0.5, 1, 1.0)], {1})]
    graph = binned_graph(records, toy_vocab(), 2)
    sampler = Sampler(graph, SamplerConfig(), 0)
    ctx = sampler.sample_context(0, 0)
    assert ctx.pos_patients == ()
    assert ctx.neg_patients == ()


class TestSampleNegatives:
    def test_draws_come_from_complement(self):
        records = [make_record("p0", [(0.5, 0, 1.0)], {1, 3}),
                   make_record("p1", [(0.5, 1, 1.0)], {0})]
        graph = binned_graph(records, toy_vocab(3, 5), 2)
        sampler = Sampler(graph, SamplerConfig(), 4)
        for _ in range(30):
            negs = sampler.sample_negatives(0, 0, NodeType.DIAGNOSIS, 3)
            assert negs.shape == (3,) and set(negs.tolist()) <= {0, 2, 4}

    def test_lab_negatives_avoid_tested(self):
        records = [make_record("p0", [(0.5, 1, 1.0)], {0})]
        graph = binned_graph(records, toy_vocab(4, 2), 2)
        sampler = Sampler(graph, SamplerConfig(), 4)
        negs = sampler.sample_negatives(0, 0, NodeType.LAB, 50)
        assert negs.shape == (50,) and set(negs.tolist()) <= {0, 2, 3}

    def test_patient_negatives_share_no_diagnosis(self, shared_dx_graph):
        graph, _, _ = shared_dx_graph
        sampler = Sampler(graph, SamplerConfig(), 5)
        negs = sampler.sample_negatives(0, 0, NodeType.PATIENT_HOUR, 40)
        # p1 shares diagnosis 1 with p0, so only p2's hours are eligible
        assert negs.shape == (40, 2)
        assert set(negs[:, 0].tolist()) == {2} and set(negs[:, 1].tolist()) <= {0, 1}

    def test_fully_connected_center_errors(self):
        records = [make_record("p0", [(0.5, 0, 1.0)], {0, 1, 2})]
        graph = binned_graph(records, toy_vocab(3, 3), 2)
        sampler = Sampler(graph, SamplerConfig(), 0)
        with pytest.raises(ValueError, match="empty negative pool"):
            sampler.sample_negatives(0, 0, NodeType.DIAGNOSIS, 2)

    def test_uniformity_over_eligible_pool(self):
        # 100k draws over the 3 eligible diagnoses: each count within 3 sigma
        records = [make_record("p0", [(0.5, 0, 1.0)], {1, 3})]
        graph = binned_graph(records, toy_vocab(3, 5), 2)
        sampler = Sampler(graph, SamplerConfig(), 6)
        n = 100_000
        draws = sampler.sample_negatives(0, 0, NodeType.DIAGNOSIS, n)
        counts = {0: 0, 2: 0, 4: 0}
        for index in draws.tolist():
            counts[index] += 1
        expected = n / 3
        sigma = np.sqrt(n * (1 / 3) * (2 / 3))
        for c in counts.values():
            assert abs(c - expected) < 3 * sigma

    def test_draws_from_the_oracle_pools(self):
        # Every center and node type: the draws a generator of the same seed
        # makes over ContextOracle's negative pool, or the empty-pool refusal.
        for seed, graph in enumerate(awkward_graphs()):
            sampler = Sampler(graph, SamplerConfig(), seed)
            oracle, rng = ContextOracle(graph, SamplerConfig(), seed), np.random.default_rng(seed)
            for p, h in np.ndindex(graph.n_patients, graph.window_hours):
                _, pools = oracle._pools(p, h)
                for node_type, pool in zip((NodeType.DIAGNOSIS, NodeType.LAB,
                                            NodeType.PATIENT_HOUR), pools):
                    if not pool.size:
                        with pytest.raises(ValueError, match=rf"^empty negative pool for type "
                                                             rf"{node_type.value}$"):
                            sampler.sample_negatives(p, h, node_type, 3)
                    elif node_type is NodeType.PATIENT_HOUR:
                        draws = rng.integers(0, np.repeat((pool.size, graph.window_hours), 3))
                        assert sampler.sample_negatives(p, h, node_type, 3).tolist() == \
                            np.column_stack((pool[draws[:3]], draws[3:])).tolist()
                    else:
                        assert sampler.sample_negatives(p, h, node_type, 3).tolist() == \
                            pool[rng.integers(0, pool.size, size=3)].tolist()
            assert sampler.rng.bit_generator.state == rng.bit_generator.state

    def test_unknown_node_type_refused(self, shared_dx_graph):
        graph, _, _ = shared_dx_graph
        with pytest.raises(KeyError):
            Sampler(graph, SamplerConfig(), 0).sample_negatives(0, 0, "lab", 2)


def test_positives_are_neighbors_negatives_are_not():
    cfg = GenConfig(n_patients=12, n_labs=6, n_diagnoses=8, window_hours=3)
    records = generate_synthetic(cfg, seed=8)
    graph = binned_graph(records, synthetic_vocabulary(cfg), 3)
    sampler = Sampler(graph, SamplerConfig(n_diagnoses=4, n_labs=4, n_copatients=4,
                                           negatives_per_positive=3), 9)
    checked = 0
    for p in range(graph.n_patients):
        for h in range(graph.window_hours):
            center = ph(p, h)
            try:
                ctx = sampler.sample_context(p, h)
            except UntrainableCenterError:
                continue
            checked += 1
            dx_neighbors = {n.index for n in neighbors(graph, center, NodeType.DIAGNOSIS)}
            lab_neighbors = {n.index for n in neighbors(graph, center, NodeType.LAB)}
            ph_neighbors = {n.index for n in neighbors(graph, center, NodeType.PATIENT_HOUR)}
            for pos in ctx.pos_diagnoses:
                assert pos.index in dx_neighbors
            for pos in ctx.pos_labs:
                assert pos.index in lab_neighbors
            for pos in ctx.pos_patients:
                assert pos.index in ph_neighbors
            if ctx.pos_temporal is not None:
                assert ctx.pos_temporal.index == (p, h - 1)
            for negs in ctx.neg_diagnoses:
                assert all(n.index not in dx_neighbors for n in negs)
            for negs in ctx.neg_labs:
                assert all(n.index not in lab_neighbors for n in negs)
            sharing = sharing_patients(graph, center)
            for negs in list(ctx.neg_patients) + [ctx.neg_temporal]:
                for n in negs:
                    assert n.index[0] != p
                    assert n.index[0] not in sharing
    assert checked > 10


def test_same_seed_same_samples(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    a = Sampler(graph, SamplerConfig(), 42)
    b = Sampler(graph, SamplerConfig(), 42)
    for h in range(2):
        assert a.sample_context(0, h) == b.sample_context(0, h)
    c = Sampler(graph, SamplerConfig(), 43)
    assert c.sample_context(0, 0) != a.sample_context(0, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_diagnoses=0)


def test_memory_holds_no_patient_by_patient_array():
    # a (P, P) bool non-sharing mask alone is P**2 bytes; its float64 product ~8 P**2
    rng = np.random.default_rng(0)
    n = 2000
    graph = HeteroGraph(np.zeros((n, 2, 3)), rng.random((n, 2, 3)) < 0.5,
                        rng.random((n, 50)) < 0.11)
    sampler, peak = traced_peak(Sampler, graph, SamplerConfig(), 0)
    assert peak < n * n
    context, peak = traced_peak(sampler.sample_context, 0, 1)
    assert peak < n * n and context.n_positives() > 0
    # a planned chunk draws CHUNK centers of about as many distinct patients
    centers = np.stack(np.divmod(rng.permutation(2 * n), 2), axis=1)
    sampler.plan(centers)
    context, peak = traced_peak(sampler.sample_context, *centers[0].tolist())
    assert peak < 4_000_000 and context.n_positives() > 0


def test_memory_of_a_training_epoch_does_not_grow_with_d():
    # A desk epoch at d = 128 peaked at 4.8 MiB with per-context Terms and 5.7 MiB
    # with each chunk's flattened context arrays; a per-chunk array of CHUNK x S x d
    # floats alone would be 256 x 260 x 128 x 8 B = 65 MiB.
    graph, experiment, seed = desk_fold_0()
    config = dataclasses.replace(experiment.hgm, epochs=1, d=128)
    params, peak = traced_peak(train_hgm, graph, config, seed)
    assert params.d == 128 and peak < 6 * 2**20


def sharing_patients(graph, center):
    """The center's patient and every patient sharing one of its diagnoses."""
    sharing = {center.index[0]}
    for dx in neighbors(graph, center, NodeType.DIAGNOSIS):
        sharing.update(n.index[0] for n in neighbors(graph, dx, NodeType.PATIENT_HOUR))
    return sharing


class ReferenceSampler:
    """The sampler as it was written before its pools became arrays: every
    positive and every negative block is its own rng.choice/integers call and
    every pool is rebuilt from the graph's one-hop neighborhoods."""

    def __init__(self, graph, config, seed):
        self.graph = graph
        self.config = config
        self.rng = np.random.default_rng(seed)

    def _indices(self, node, node_type):
        return [n.index for n in neighbors(self.graph, node, node_type)]

    def _carriers(self, dx, exclude):
        carriers = sorted({q for q, _ in self._indices(NodeId(NodeType.DIAGNOSIS, dx),
                                                       NodeType.PATIENT_HOUR)})
        pool = np.array(carriers, dtype=np.int64)
        return pool[pool != exclude]

    def _negative_pool(self, p, h, node_type):
        graph = self.graph
        if node_type is NodeType.DIAGNOSIS:
            connected = set(self._indices(ph(p, h), NodeType.DIAGNOSIS))
            return np.array([d for d in range(graph.n_diagnoses) if d not in connected],
                            dtype=np.int64)
        if node_type is NodeType.LAB:
            tested = set(self._indices(ph(p, h), NodeType.LAB))
            return np.array([l for l in range(graph.n_labs) if l not in tested], dtype=np.int64)
        sharing = sharing_patients(graph, ph(p, h))
        return np.array([q for q in range(graph.n_patients) if q not in sharing], dtype=np.int64)

    def _draw_negatives(self, p, h, node_type, n_positives):
        pool = self._negative_pool(p, h, node_type)
        if pool.size == 0 or n_positives == 0:
            return tuple(() for _ in range(n_positives))
        out = []
        for _ in range(n_positives):
            k = self.config.negatives_per_positive
            if node_type is NodeType.PATIENT_HOUR:
                patients = self.rng.choice(pool, size=k, replace=True)
                hours = self.rng.integers(0, self.graph.window_hours, size=k)
                out.append(tuple(NodeId(node_type, (int(q), int(hh)))
                                 for q, hh in zip(patients, hours)))
            else:
                picks = self.rng.choice(pool, size=k, replace=True)
                out.append(tuple(NodeId(node_type, int(i)) for i in picks))
        return tuple(out)

    def sample_context(self, p, h):
        graph = self.graph
        center = ph(p, h)
        dx_pool = np.array(self._indices(center, NodeType.DIAGNOSIS), dtype=np.int64)
        lab_pool = np.array(self._indices(center, NodeType.LAB), dtype=np.int64)
        if dx_pool.size == 0 and lab_pool.size == 0:
            raise UntrainableCenterError(f"({p}, {h})")
        pos_diagnoses = ()
        if dx_pool.size:
            picks = self.rng.choice(dx_pool, size=self.config.n_diagnoses, replace=True)
            pos_diagnoses = tuple(NodeId(NodeType.DIAGNOSIS, int(d)) for d in picks)
        pos_labs = ()
        if lab_pool.size:
            picks = self.rng.choice(lab_pool, size=self.config.n_labs, replace=True)
            pos_labs = tuple(NodeId(NodeType.LAB, int(l)) for l in picks)
        pos_patients = ()
        eligible = [d.index for d in pos_diagnoses if self._carriers(d.index, p).size]
        if eligible:
            out = []
            for _ in range(self.config.n_copatients):
                dx = eligible[int(self.rng.integers(0, len(eligible)))]
                carriers = self._carriers(dx, p)
                q = int(carriers[int(self.rng.integers(0, carriers.size))])
                hour = int(self.rng.integers(0, graph.window_hours))
                out.append(NodeId(NodeType.PATIENT_HOUR, (q, hour)))
            pos_patients = tuple(out)
        # the temporal next node is the one hour neighbor of the center's own patient
        own = [n for n in neighbors(graph, center, NodeType.PATIENT_HOUR) if n.index[0] == p]
        assert len(own) <= 1
        pos_temporal = own[0] if own else None
        neg_diagnoses = self._draw_negatives(p, h, NodeType.DIAGNOSIS, len(pos_diagnoses))
        neg_labs = self._draw_negatives(p, h, NodeType.LAB, len(pos_labs))
        neg_patients = self._draw_negatives(p, h, NodeType.PATIENT_HOUR, len(pos_patients))
        neg_temporal = ()
        if pos_temporal is not None:
            neg_temporal = self._draw_negatives(p, h, NodeType.PATIENT_HOUR, 1)[0]
        return make_context(graph, (p, h), pos_labs, neg_labs, pos_diagnoses, neg_diagnoses,
                            pos_patients, neg_patients, pos_temporal, neg_temporal)


def edge_case_graphs():
    """Empty hours, a diagnosis-free patient, diagnoses only their patient
    carries and a fully tested hour; then two patients who share everything."""
    records = [
        make_record("p0", [(0.5, 0, 1.0), (0.5, 1, 1.0), (0.5, 2, 1.0), (0.5, 3, 1.0),
                           (2.5, 1, 0.2)], {0, 1, 2}),
        make_record("p1", [(1.5, 2, -1.0)], {1}),
        make_record("p2", [(0.5, 3, 0.1)], set()),
        make_record("p3", [(1.5, 0, 0.4), (2.5, 2, 0.1)], {2, 4}),
        make_record("p4", [], {5}),
    ]
    sharing = [make_record("p0", [(0.5, 0, 1.0)], {0, 1}), make_record("p1", [], {0})]
    return [binned_graph(records, toy_vocab(n_labs=4, n_diagnoses=6), 3),
            binned_graph(sharing, toy_vocab(n_labs=4, n_diagnoses=6), 3)]


@pytest.mark.parametrize("seed", [11, 12])
def test_matches_reference_sampler_on_every_center(seed):
    cfg = GenConfig(n_patients=12, n_labs=6, n_diagnoses=8, window_hours=3)
    synthetic = binned_graph(generate_synthetic(cfg, seed=8), synthetic_vocabulary(cfg), 3)
    config = SamplerConfig(n_diagnoses=4, n_labs=3, n_copatients=5, negatives_per_positive=2)
    untrainable = 0
    for graph in [synthetic] + edge_case_graphs():
        sampler = Sampler(graph, config, seed)
        reference = ReferenceSampler(graph, config, seed)
        for _ in range(2):  # a second pass continues both streams
            for p, h in np.ndindex(graph.n_patients, graph.window_hours):
                try:
                    expected = reference.sample_context(p, h)
                except UntrainableCenterError:
                    untrainable += 1
                    with pytest.raises(UntrainableCenterError):
                        sampler.sample_context(p, h)
                    continue
                ctx = sampler.sample_context(p, h)
                assert ctx == expected
                assert ctx.pos_patients == expected.pos_patients
                assert ctx.neg_temporal == expected.neg_temporal
        assert sampler.rng.integers(0, 2**62) == reference.rng.integers(0, 2**62)
    assert untrainable > 0


def test_context_views_round_trip():
    graph = HeteroGraph(np.zeros((4, 3, 3)), np.zeros((4, 3, 3), dtype=bool),
                        np.zeros((4, 5), dtype=bool))
    center = (0, 1)
    kwargs = dict(
        pos_diagnoses=(NodeId(NodeType.DIAGNOSIS, 2),),
        pos_labs=(NodeId(NodeType.LAB, 1), NodeId(NodeType.LAB, 0)),
        pos_patients=(ph(1, 0),), pos_temporal=ph(0, 0),
        neg_diagnoses=((NodeId(NodeType.DIAGNOSIS, 0), NodeId(NodeType.DIAGNOSIS, 4)),),
        neg_labs=((NodeId(NodeType.LAB, 2),), ()),
        neg_patients=((ph(2, 1), ph(2, 0)),), neg_temporal=(ph(3, 2),),
    )
    ctx = make_context(graph, center, **kwargs)
    for name, value in kwargs.items():
        assert getattr(ctx, name) == value
    assert ctx.n_positives() == 5
    assert ctx == make_context(graph, center, **kwargs)
    assert ctx != make_context(graph, center, **dict(kwargs, neg_temporal=()))
    tested = ctx.terms[0]
    assert tested.index.tolist() == [1, 2, 0]
    assert tested.target.tolist() == [1.0, 0.0, 1.0]
    assert ctx.terms[3].index.tolist() == [[0, 0], [3, 2]]
    with pytest.raises(ValueError, match="negative groups"):
        make_context(graph, center, pos_labs=(NodeId(NodeType.LAB, 1),))


class TestIntegersStream:
    """The Generator.integers properties the sampler's stream rests on. A numpy
    that changes one of them changes every sampled context, and so criterion 4."""

    BOUNDS = [7, 1, 450, 12, 2, 1, 1, 3, 50, 5, 12]

    @staticmethod
    def next_draw(rng):
        """The stream after a call, through both the 32- and the 64-bit paths."""
        return rng.integers(0, 1000, size=3).tolist(), int(rng.integers(0, 2**62))

    def test_array_of_bounds_draws_like_one_call_per_bound(self):
        # integers rejects about half the words under a bound just above 2**31
        # and a quarter under 3 * 2**30 (those w with w mod 4 == 0). A grid of
        # bounds draws in C order; a generator that holds the high half of its
        # last output draws from that half first; restoring the generator's
        # state replays the draws.
        rng = np.random.default_rng(17)
        bounds = np.concatenate([self.BOUNDS, rng.integers(2**31 + 1, 2**31 + 2**24, 200),
                                 np.full(100, 3 * 2**30), rng.integers(2, 1000, 289)])
        rng.shuffle(bounds)
        grid = bounds.reshape(20, 30)
        for held_over in (False, True):
            whole, single = np.random.default_rng(3), np.random.default_rng(3)
            if held_over:
                whole.integers(0, 10), single.integers(0, 10)
            state = whole.bit_generator.state
            drawn = whole.integers(0, grid)
            assert drawn.shape == grid.shape
            assert drawn.ravel().tolist() == [int(single.integers(0, b)) for b in bounds.tolist()]
            after = self.next_draw(single)
            assert self.next_draw(whole) == after
            whole.bit_generator.state = state
            assert whole.integers(0, grid).tolist() == drawn.tolist()
            assert self.next_draw(whole) == after

    def test_bound_of_one_consumes_nothing(self):
        rng, untouched = np.random.default_rng(5), np.random.default_rng(5)
        assert rng.integers(0, 1) == 0
        assert rng.integers(0, np.ones(4, dtype=np.int64)).tolist() == [0, 0, 0, 0]
        assert rng.integers(0, 1, size=3).tolist() == [0, 0, 0]
        assert self.next_draw(rng) == self.next_draw(untouched)

    def test_size_fill_equals_array_form(self):
        for bound, count in [(9, 20), (450, 5), (12, 1)]:
            filled, broadcast = np.random.default_rng(bound), np.random.default_rng(bound)
            assert (filled.integers(0, bound, size=count).tolist()
                    == broadcast.integers(0, np.full(count, bound)).tolist())
            assert self.next_draw(filled) == self.next_draw(broadcast)


def visit_orders(graph, seed, epochs):
    """`epochs` shuffled visit orders of every center, as (n, 2) (p, h) arrays."""
    shuffle = np.random.default_rng(seed)
    rows = graph.n_patients * graph.window_hours
    return [np.stack(np.divmod(shuffle.permutation(rows), graph.window_hours), axis=1)
            for _ in range(epochs)]


def assert_planned_draw_equals_oracle(graph, config, seed, orders):
    """Plan each order in turn: every context equals the per-context oracle's,
    and the generators end in the same state. Returns the untrainable visits
    and each chunk's passes."""
    sampler, oracle = Sampler(graph, config, seed), ContextOracle(graph, config, seed)
    untrainable, passes = assert_same_contexts(sampler, oracle, orders)
    assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state
    return untrainable, passes


class PassSpy:
    """Stands in for a sampler's generator and counts each chunk's integers
    calls, its passes. A chunk of n centers fails past 2 * n_copatients * n + 1
    passes, so a draw that never settles fails rather than running without end."""

    def __init__(self, sampler):
        self.rng, self.bit_generator, self.passes = sampler.rng, sampler.rng.bit_generator, []
        draw, n_copatients = sampler._draw, sampler.config.n_copatients

        def counted(centers):
            self.passes.append(0)
            self.limit = 2 * n_copatients * len(centers) + 1
            return draw(centers)

        sampler.rng, sampler._draw = self, counted

    def integers(self, low, high):
        self.passes[-1] += 1
        assert self.passes[-1] <= self.limit, f"a chunk is not settled after {self.limit} passes"
        return self.rng.integers(low, high)


def assert_same_contexts(sampler, oracle, orders):
    """Plan each order in turn, drawing through a PassSpy: every context equals
    the oracle's. Returns the untrainable visits and each chunk's passes."""
    spy, untrainable = PassSpy(sampler), 0
    for centers in orders:
        sampler.plan(centers)
        for p, h in centers.tolist():
            try:
                expected = oracle.sample_context(p, h)
            except UntrainableCenterError:
                untrainable += 1
                with pytest.raises(UntrainableCenterError):
                    sampler.sample_context(p, h)
                continue
            assert sampler.sample_context(p, h) == expected, (p, h)
    return untrainable, spy.passes


@functools.lru_cache(maxsize=1)
def desk_fold_0():
    """Fold 0 of criterion 4's corpus as train_fold builds it: (graph, experiment
    config, the seed train_fold passes to train_hgm)."""
    from test_acceptance import DESK_EXPERIMENT, DESK_GEN, DESK_GEN_SEED  # it imports this module

    gen = GenConfig(**DESK_GEN)
    window, vocab = gen.window_hours, synthetic_vocabulary(gen)
    fold, train, _ = plan_folds(generate_synthetic(gen, seed=DESK_GEN_SEED),
                                DESK_EXPERIMENT.k_folds, DESK_EXPERIMENT.seed, window)[0]
    graph = build_graph(train, vocab,
                        bin_events(train, window, fit_normalizer(train, window, vocab.n_labs)))
    return graph, DESK_EXPERIMENT, derive_seed(DESK_EXPERIMENT.seed, "hgm", fold, window)


def test_planned_draw_equals_oracle_over_a_desk_run():
    # train_hgm's two-epoch visit order on fold 0 of criterion 4's corpus
    graph, experiment, seed = desk_fold_0()
    orders = visit_orders(graph, derive_seed(seed, "hgm-shuffle"), experiment.hgm.epochs)
    _, passes = assert_planned_draw_equals_oracle(graph, experiment.hgm.sampler,
                                                  derive_seed(seed, "hgm-sampler"), orders)
    assert max(passes) <= 2


def awkward_graphs():
    """Graphs where a context's word count departs from the guess the pools give."""
    # p0 shares diagnosis 0 with p1 alone (a carrier bound of 1) and carries
    # diagnosis 1 alone (never eligible), so two diagnosis draws give an
    # eligible list of length 0, 1 or 2; p2 has no diagnosis (a full
    # diagnosis-negative pool) and p3 is tested for every lab (an empty
    # lab-negative one). One hour: no hour draw takes a word.
    diagnosed = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
                         dtype=bool)
    observed = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 1], [0, 0, 0]], dtype=bool)
    one_hour = HeteroGraph(np.ones((5, 1, 3)), observed[:, None], diagnosed)
    # p0 carries every diagnosis, so it shares one with everyone: empty
    # diagnosis- and patient-negative pools.
    everyone = HeteroGraph(np.ones((3, 2, 2)), np.ones((3, 2, 2), dtype=bool),
                           np.array([[1, 1, 1], [1, 0, 0], [0, 1, 0]], dtype=bool))
    rng = np.random.default_rng(23)
    random = [HeteroGraph(np.ones((p, t, 4)), rng.random((p, t, 4)) < 0.4,
                          rng.random((p, 5)) < density)
              for p, t, density in [(9, 3, 0.25), (14, 1, 0.15), (6, 2, 0.6), (30, 2, 0.1)]]
    # no diagnosis at all: the patient-hours with a tested lab alone are trainable
    undiagnosed = HeteroGraph(np.ones((4, 2, 3)), rng.random((4, 2, 3)) < 0.5,
                              np.zeros((4, 0), dtype=bool))
    return [one_hour, everyone, undiagnosed] + edge_case_graphs() + random


@pytest.mark.parametrize("counts", [(2, 1, 3, 1), (1, 2, 2, 3), (3, 3, 4, 2)],
                         ids=lambda c: "/".join(map(str, c)))
@pytest.mark.parametrize("chunk", [256, 5])
def test_planned_draw_equals_oracle_on_awkward_graphs(monkeypatch, counts, chunk):
    monkeypatch.setattr(sampler_module, "CHUNK", chunk)
    untrainable = sum(
        assert_planned_draw_equals_oracle(graph, SamplerConfig(*counts), seed,
                                          visit_orders(graph, seed, 3))[0]
        for seed, graph in enumerate(awkward_graphs()))
    assert untrainable > 0


def test_one_diagnosis_draw_settles_a_chunk_in_few_passes():
    # Drawing one positive diagnosis, the eligible-diagnosis pick is bounded
    # by 1 and takes no word. A guess that it takes one is contradicted by
    # every context with co-patients.
    cfg = GenConfig(n_patients=60, n_labs=6, n_diagnoses=8, window_hours=4)
    graph = binned_graph(generate_synthetic(cfg, seed=9), synthetic_vocabulary(cfg), 4)
    _, passes = assert_planned_draw_equals_oracle(graph, SamplerConfig(1, 3, 3, 2), 5,
                                                  visit_orders(graph, 2, 2))
    assert max(passes) <= 2


class ScriptedIntegers:
    """Generator.integers(0, high) over a fixed script of 32-bit words, one word
    at a time; its bit_generator is itself, and its state the script position."""

    def __init__(self, script):
        self.script, self.taken, self.rejected = script.tolist(), 0, 0

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.taken

    @state.setter
    def state(self, taken):
        self.taken = taken

    def integers(self, low, high):
        assert low == 0
        draws = [self._draw(b) for b in np.ravel(high).tolist()]
        return np.array(draws, dtype=np.int64).reshape(np.shape(high)) if np.ndim(high) else draws[0]

    def _draw(self, bound):
        while bound > 1:
            scaled = self.script[self.taken] * bound
            self.taken += 1
            if scaled % 2**32 >= (2**32 - bound) % bound:
                return scaled >> 32
            self.rejected += 1
        return 0


def test_rejected_words_are_skipped_as_integers_skips_them():
    # A word of 0 is rejected under any bound that is not a power of 2, so a
    # script with many of them makes integers reject words mid-chunk.
    rng = np.random.default_rng(31)
    script = rng.integers(0, 2**32, 400_000, dtype=np.uint64).astype(np.uint32)
    script[rng.random(script.size) < 0.05] = 0
    cfg = GenConfig(n_patients=40, n_labs=6, n_diagnoses=8, window_hours=3)
    graph = binned_graph(generate_synthetic(cfg, seed=8), synthetic_vocabulary(cfg), 3)
    config = SamplerConfig(3, 3, 3, 2)
    sampler, oracle = Sampler(graph, config, 0), ContextOracle(graph, config, 0)
    sampler.rng, oracle.rng = ScriptedIntegers(script), ScriptedIntegers(script)
    assert_same_contexts(sampler, oracle, visit_orders(graph, 1, 2))
    assert sampler.rng.bit_generator.state == oracle.rng.taken
    assert oracle.rng.rejected == 355


def test_chunk_draw_skips_the_words_integers_rejects():
    # A word is rejected under bound b with chance (2**32 mod b) / 2**32, below
    # b / 2**32. Each patient carries one of two diagnoses, so its carrier and
    # patient-negative bounds are ~20 000, with 2**32 mod b within 0.03% of b for
    # the negatives: 512 centers of 50 co-patients with 20 negatives each draw
    # ~550 000 such words and, at this seed, integers rejects 8 of them.
    carriers = (19_825, 20_261)
    diagnosed = np.repeat(np.eye(2, dtype=bool), carriers, axis=0)
    n = len(diagnosed)
    graph = HeteroGraph(np.zeros((n, 1, 1)), np.ones((n, 1, 1), dtype=bool), diagnosed)
    centers = np.stack((np.random.default_rng(3).choice(n, 512, replace=False),
                        np.zeros(512, dtype=np.int64)), axis=1)
    assert_planned_draw_equals_oracle(graph, SamplerConfig(2, 1, 50, 20), 3, [centers])


def test_unplanned_center_refused_while_a_plan_is_pending(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    sampler, oracle = Sampler(graph, SamplerConfig(), 1), ContextOracle(graph, SamplerConfig(), 1)
    sampler.plan([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"center \(0, 1\) is not the next planned one, \(1, 0\)"):
        sampler.sample_context(0, 1)
    # the refusal drew nothing and kept the plan
    assert sampler.sample_context(1, 0) == oracle.sample_context(1, 0)
    assert sampler.sample_context(0, 1) == oracle.sample_context(0, 1)
    # with nothing planned, any center is drawn alone
    assert sampler.sample_context(2, 0) == oracle.sample_context(2, 0)
