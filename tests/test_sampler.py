import collections
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

import hgm_ehr.sampler as sampler_module
from hgm_ehr.evaluate import plan_folds
from hgm_ehr.graph import HeteroGraph, NodeType, build_graph
from hgm_ehr.hgm import train_hgm
from hgm_ehr.ingest import (GenConfig, bin_events, fit_normalizer, generate_synthetic,
                            synthetic_vocabulary)
from hgm_ehr.sampler import Sampler, SamplerConfig, UntrainableCenterError
from hgm_ehr.seeds import derive_seed

from conftest import (binned_graph, cells, make_context, make_record, positives, toy_vocab,
                      traced_peak)
from oracles import NodeId, neighbors


def ph(p, h):
    return NodeId(NodeType.PATIENT_HOUR, (p, h))


def test_default_context_shape(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    sampler = Sampler(graph, SamplerConfig(), 1)
    ctx = sampler.sample_context(0, 1)
    # 10 lab and 10 diagnosis positives, each followed by its 5 negatives
    for tested_or_diagnosed in ctx.terms[:2]:
        assert tested_or_diagnosed.target.tolist() == ([1.0] + [0.0] * 5) * 10
    assert len(positives(ctx, 2)) == 10
    assert positives(ctx, 3) == [(0, 0)]
    assert ctx.n_positives() == 31


def test_hour_zero_has_no_temporal_positive(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    sampler = Sampler(graph, SamplerConfig(), 1)
    ctx = sampler.sample_context(0, 0)
    assert positives(ctx, 3) == []
    assert cells(ctx.terms[3], 0.0) == []


def test_single_neighbor_repeats(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    sampler = Sampler(graph, SamplerConfig(), 2)
    # p2 has exactly one diagnosis and one tested lab at hour 0
    ctx = sampler.sample_context(2, 0)
    assert positives(ctx, 1) == [3] * 10
    assert set(positives(ctx, 0)) == {3}


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
    assert len(positives(ctx, 2)) == 10
    assert all(q == 1 for q, _ in positives(ctx, 2))


def test_copatient_pool_may_be_empty():
    records = [make_record("p0", [(0.5, 0, 1.0)], {0}),
               make_record("p1", [(0.5, 1, 1.0)], {1})]
    graph = binned_graph(records, toy_vocab(), 2)
    sampler = Sampler(graph, SamplerConfig(), 0)
    ctx = sampler.sample_context(0, 0)
    assert positives(ctx, 2) == []
    assert cells(ctx.terms[2], 0.0) == []


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
        # makes over ReferenceSampler's negative pool, or the empty-pool refusal.
        for seed, graph in enumerate(awkward_graphs()):
            sampler = Sampler(graph, SamplerConfig(), seed)
            reference, rng = ReferenceSampler(graph), np.random.default_rng(seed)
            for p, h in np.ndindex(graph.n_patients, graph.window_hours):
                for node_type in (NodeType.DIAGNOSIS, NodeType.LAB, NodeType.PATIENT_HOUR):
                    pool = reference._negative_pool(p, h, node_type)
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
            tested, diagnosed, copatient, temporal = ctx.terms
            assert set(cells(diagnosed, 1.0)) <= dx_neighbors
            assert set(cells(tested, 1.0)) <= lab_neighbors
            assert set(cells(copatient, 1.0)) <= ph_neighbors
            assert set(cells(temporal, 1.0)) <= {(p, h - 1)}
            assert not set(cells(diagnosed, 0.0)) & dx_neighbors
            assert not set(cells(tested, 0.0)) & lab_neighbors
            sharing = sharing_patients(graph, center)
            for q, _ in cells(copatient, 0.0) + cells(temporal, 0.0):
                assert q != p
                assert q not in sharing
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
    """The sampler's pools as they were written before they became arrays, each
    rebuilt from the graph's one-hop neighborhoods."""

    def __init__(self, graph):
        self.graph = graph

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
    # every node given comes back in its relation's terms, each positive
    # followed by its negatives
    assert [(terms.index.tolist(), terms.target.tolist()) for terms in ctx.terms] == [
        ([1, 2, 0], [1.0, 0.0, 1.0]),
        ([2, 0, 4], [1.0, 0.0, 0.0]),
        ([[1, 0], [2, 1], [2, 0]], [1.0, 0.0, 0.0]),
        ([[0, 0], [3, 2]], [1.0, 0.0])]
    assert ctx.n_positives() == 5
    assert ctx == make_context(graph, center, **kwargs)
    assert ctx != make_context(graph, center, **dict(kwargs, neg_temporal=()))
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
        # last output draws from that half first.
        rng = np.random.default_rng(17)
        bounds = np.concatenate([self.BOUNDS, rng.integers(2**31 + 1, 2**31 + 2**24, 200),
                                 np.full(100, 3 * 2**30), rng.integers(2, 1000, 289)])
        rng.shuffle(bounds)
        grid = bounds.reshape(20, 30)
        for held_over in (False, True):
            whole, single = np.random.default_rng(3), np.random.default_rng(3)
            if held_over:
                whole.integers(0, 10), single.integers(0, 10)
            drawn = whole.integers(0, grid)
            assert drawn.shape == grid.shape
            assert drawn.ravel().tolist() == [int(single.integers(0, b)) for b in bounds.tolist()]
            assert self.next_draw(whole) == self.next_draw(single)

    def test_bound_of_one_consumes_nothing(self):
        rng, untouched = np.random.default_rng(5), np.random.default_rng(5)
        assert rng.integers(0, 1) == 0
        assert rng.integers(0, np.ones(4, dtype=np.int64)).tolist() == [0, 0, 0, 0]
        assert rng.integers(0, 1, size=3).tolist() == [0, 0, 0]
        assert self.next_draw(rng) == self.next_draw(untouched)



def visit_orders(graph, seed, epochs):
    """`epochs` shuffled visit orders of every center, as (n, 2) (p, h) arrays."""
    shuffle = np.random.default_rng(seed)
    rows = graph.n_patients * graph.window_hours
    return [np.stack(np.divmod(shuffle.permutation(rows), graph.window_hours), axis=1)
            for _ in range(epochs)]


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


def awkward_graphs():
    """Graphs whose pools are small, empty or full, and edge_case_graphs()."""
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


def planned_contexts(graph, config, seed, orders):
    """Plan each order in turn and yield every visit's context, or None for an
    untrainable center."""
    sampler = Sampler(graph, config, seed)
    for centers in orders:
        sampler.plan(centers)
        for p, h in centers.tolist():
            try:
                yield (p, h), sampler.sample_context(p, h)
            except UntrainableCenterError:
                yield (p, h), None


def blocks(terms, n, k):
    """A relation's terms as an (n, 1 + k) grid of node indices, after checking that
    they come as n positives, each followed by k negatives."""
    assert terms.target.tolist() == ([1.0] + [0.0] * k) * n
    return terms.index.reshape(n, 1 + k, *terms.index.shape[1:]).tolist()


class ReferencePools:
    """ReferenceSampler's pools as sets, each built once per center. A patient's
    non-sharing patients are those outside its diagnoses' carriers, as in
    ReferenceSampler._negative_pool, read from the carriers built once per diagnosis."""

    def __init__(self, graph):
        self.reference, self.window = ReferenceSampler(graph), graph.window_hours
        self.carriers = [set(self.reference._carriers(dx, -1).tolist())
                         for dx in range(graph.n_diagnoses)]
        self.patients = set(range(graph.n_patients))
        self.positives = functools.cache(self._positives)
        self.negatives = functools.cache(self._negatives)

    def _positives(self, p, h, node_type):
        return set(self.reference._indices(ph(p, h), node_type))

    def _negatives(self, p, h, node_type):
        if node_type is NodeType.PATIENT_HOUR:
            diagnoses = self.positives(p, 0, NodeType.DIAGNOSIS)
            return self.patients - {p} - set().union(*(self.carriers[dx] for dx in diagnoses))
        return set(self.reference._negative_pool(p, h, node_type).tolist())

    def eligible(self, p, diagnoses):
        """The diagnoses with a carrier other than p."""
        return {dx for dx in diagnoses if self.carriers[dx] - {p}}


def assert_terms_from_pools(pools, config, center, context):
    """The context's four relations, each in its exact blocks and every term in
    ReferenceSampler's pool for its slot; untrainable exactly when the center has
    neither diagnoses nor tested labs."""
    p, h = center
    dx_pool = pools.positives(p, h, NodeType.DIAGNOSIS)
    lab_pool = pools.positives(p, h, NodeType.LAB)
    assert (context is None) == (not dx_pool and not lab_pool), center
    if context is None:
        return
    k = config.negatives_per_positive
    dx_neg = pools.negatives(p, h, NodeType.DIAGNOSIS)
    lab_neg = pools.negatives(p, h, NodeType.LAB)
    patient_neg = pools.negatives(p, h, NodeType.PATIENT_HOUR)
    tested, diagnosed, copatient, temporal = context.terms
    k_ph = k if patient_neg else 0
    for terms, n, pool, negatives in [
            (tested, config.n_labs if lab_pool else 0, lab_pool, lab_neg),
            (diagnosed, config.n_diagnoses if dx_pool else 0, dx_pool, dx_neg)]:
        grid = blocks(terms, n, k if negatives else 0)
        assert {row[0] for row in grid} <= pool, center
        assert {i for row in grid for i in row[1:]} <= negatives, center
    eligible = pools.eligible(p, diagnosed.index[diagnosed.target == 1.0].tolist())
    sharing = set().union(*(pools.carriers[dx] for dx in dx_pool)) - {p}
    grids = [blocks(copatient, config.n_copatients if eligible else 0, k_ph),
             blocks(temporal, int(h > 0), k_ph)]
    assert all(q in sharing and 0 <= hour < pools.window for (q, hour), *_ in grids[0]), center
    assert [row[0] for row in grids[1]] == ([[p, h - 1]] if h else []), center
    assert all(q in patient_neg and 0 <= hour < pools.window
               for grid in grids for _, *negatives in grid for q, hour in negatives), center


def assert_copatients_carry_drawn_diagnoses(pools, center, context):
    """Each co-patient carries one of the context's drawn positive diagnoses that
    has a carrier other than the center's patient, and is not that patient."""
    if context is None:
        return
    p = center[0]
    diagnosed, copatient = context.terms[1:3]
    eligible = pools.eligible(p, diagnosed.index[diagnosed.target == 1.0].tolist())
    carriers = set().union(*(pools.carriers[dx] for dx in eligible)) - {p}
    assert set(copatient.index[copatient.target == 1.0, 0].tolist()) <= carriers, center


GATE_COUNTS = [(2, 1, 3, 1), (1, 2, 2, 3), (3, 3, 4, 2), (1, 3, 3, 2)]


@pytest.mark.parametrize("counts", GATE_COUNTS, ids=lambda c: "/".join(map(str, c)))
@pytest.mark.parametrize("chunk", [256, 5])
def test_terms_come_from_the_reference_pools(monkeypatch, counts, chunk):
    monkeypatch.setattr(sampler_module, "CHUNK", chunk)
    config, untrainable = SamplerConfig(*counts), 0
    for seed, graph in enumerate(awkward_graphs()):
        pools = ReferencePools(graph)
        for center, context in planned_contexts(graph, config, seed, visit_orders(graph, seed, 3)):
            assert_terms_from_pools(pools, config, center, context)
            untrainable += context is None
    assert untrainable > 0


@pytest.mark.parametrize("counts", GATE_COUNTS, ids=lambda c: "/".join(map(str, c)))
@pytest.mark.parametrize("chunk", [256, 5])
def test_copatients_carry_an_eligible_drawn_diagnosis(monkeypatch, counts, chunk):
    monkeypatch.setattr(sampler_module, "CHUNK", chunk)
    config, copatients = SamplerConfig(*counts), 0
    for seed, graph in enumerate(awkward_graphs()):
        pools = ReferencePools(graph)
        for center, context in planned_contexts(graph, config, seed, visit_orders(graph, seed, 3)):
            assert_copatients_carry_drawn_diagnoses(pools, center, context)
            copatients += context is not None and context.sizes[2] > 0
    assert copatients > 0


def test_desk_fold_0_terms_come_from_the_reference_pools():
    # train_hgm's first visit order on fold 0 of criterion 4's corpus
    graph, experiment, seed = desk_fold_0()
    config, pools = experiment.hgm.sampler, ReferencePools(graph)
    orders = visit_orders(graph, derive_seed(seed, "hgm-shuffle"), 1)
    for center, context in planned_contexts(graph, config, derive_seed(seed, "hgm-sampler"),
                                            orders):
        assert_terms_from_pools(pools, config, center, context)
        assert_copatients_carry_drawn_diagnoses(pools, center, context)


def negative_groups(terms):
    """Per positive, the indices of the target-0 terms that follow it, up to the next
    positive: ids, or [patient, hour] lists."""
    groups = []
    for index, target in zip(terms.index.tolist(), terms.target.tolist()):
        if target == 1.0:
            groups.append([])
        else:
            groups[-1].append(index)
    return groups


def assert_probe_contract(context):
    """What perfbench's term-count probe reads: n_positives() and the neg_* groups
    together count every term, and each group holds, in order, the negatives that
    follow its positive in `terms`; neg_temporal is the temporal positive's one
    group, or () without one."""
    groups = (context.neg_labs, context.neg_diagnoses, context.neg_patients)
    assert (context.n_positives() + sum(len(group) for gs in groups for group in gs)
            + len(context.neg_temporal)) == len(context.target)
    *expected, temporal = [negative_groups(terms) for terms in context.terms]
    assert [[group.tolist() for group in gs] for gs in groups] == expected
    if temporal:
        assert [context.neg_temporal.tolist()] == temporal
    else:
        assert type(context.neg_temporal) is tuple and not context.neg_temporal


def test_negative_groups_count_every_term():
    graph, experiment, seed = desk_fold_0()
    orders = visit_orders(graph, derive_seed(seed, "hgm-shuffle"), 1)
    first_chunk = itertools.islice(planned_contexts(
        graph, experiment.hgm.sampler, derive_seed(seed, "hgm-sampler"), orders),
        sampler_module.CHUNK)
    cases = [context for _, context in first_chunk]
    for config in [SamplerConfig()] + [SamplerConfig(*counts) for counts in GATE_COUNTS]:
        for seed, graph in enumerate(awkward_graphs()):
            cases += [context for _, context in
                      planned_contexts(graph, config, seed, visit_orders(graph, seed, 1))]
    checked = [context for context in cases if context is not None]
    for context in checked:
        assert_probe_contract(context)
    # the cases hold contexts with and without a temporal and a co-patient positive
    assert {(bool(context.sizes[2]), bool(context.sizes[3])) for context in checked} == \
        {(False, False), (False, True), (True, False), (True, True)}


def chi_square_sf(x, df):
    """P(X >= x) for X chi-square with df degrees of freedom: Q(df / 2, x / 2), from
    Q(1/2, y) = erfc(sqrt(y)), Q(1, y) = exp(-y) and
    Q(a + 1, y) = Q(a, y) + y**a exp(-y) / Gamma(a + 1)."""
    y, a = x / 2, 0.5 if df % 2 else 1.0
    if y == 0:
        return 1.0
    q = math.erfc(math.sqrt(y)) if df % 2 else math.exp(-y)
    while a < df / 2:
        q += math.exp(a * math.log(y) - y - math.lgamma(a + 1))
        a += 1
    return q


def assert_uniform(draws, probabilities, alpha=1e-3):
    """The draws (hashable cells) fall only on the cells of `probabilities` and pass
    Pearson's chi-square test against them at level alpha."""
    counts = collections.Counter(draws)
    assert set(counts) <= set(probabilities), set(counts) - set(probabilities)
    n = sum(counts.values())
    x = sum((counts[cell] - n * q) ** 2 / (n * q) for cell, q in probabilities.items())
    assert chi_square_sf(x, len(probabilities) - 1) > alpha, (x, counts)


@pytest.fixture(scope="module")
def uniform_contexts():
    """3 000 contexts of center (2, 1) of an 8-patient, 3-hour graph, one co-patient
    each. Patient 2 is tested for labs 0 and 2 at hour 1 and carries diagnoses 0
    (also carried by 0, 1 and 3), 1 (also carried by 4) and 2 (by 2 alone);
    patients 5, 6 and 7 share none of them."""
    diagnosed = np.zeros((8, 5), dtype=bool)
    for dx, carriers in enumerate([(0, 1, 2, 3), (2, 4), (2,), (5, 6), (5,)]):
        diagnosed[list(carriers), dx] = True
    observed = np.random.default_rng(1).random((8, 3, 5)) < 0.5
    observed[2, 1] = [True, False, True, False, False]
    graph = HeteroGraph(np.zeros((8, 3, 5)), observed, diagnosed)
    sampler = Sampler(graph, SamplerConfig(n_diagnoses=2, n_labs=3, n_copatients=1,
                                           negatives_per_positive=2), 7)
    sampler.plan([(2, 1)] * 3000)
    return [sampler.sample_context(2, 1) for _ in range(3000)]


@pytest.mark.parametrize("relation", ["tested", "diagnosed", "co-patient", "temporal"])
def test_each_relation_draws_uniformly(uniform_contexts, relation):
    # Pearson's chi-square at level 0.001 per test: at a random seed, a correct
    # sampler fails one of these seven tests with probability at most 0.007.
    # Positives are drawn uniformly from the center's pool, and each co-patient
    # from the carriers other than 2 of a uniformly drawn eligible positive
    # diagnosis (0 or 1, each with probability 1/2) at a uniform hour; negatives
    # uniformly from the non-neighbors, patient-hours over patients 5-7 and any hour.
    index = ["tested", "diagnosed", "co-patient", "temporal"].index(relation)
    terms = [context.terms[index] for context in uniform_contexts]
    hours = range(3)
    non_sharing = {(q, hour): 1 / 9 for q in (5, 6, 7) for hour in hours}
    positives, negatives = {
        "tested": ({0: 1 / 2, 2: 1 / 2}, {1: 1 / 3, 3: 1 / 3, 4: 1 / 3}),
        "diagnosed": ({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, {3: 1 / 2, 4: 1 / 2}),
        "co-patient": ({(q, hour): share / 3 for q, share in [(0, 1 / 6), (1, 1 / 6),
                                                               (3, 1 / 6), (4, 1 / 2)]
                        for hour in hours}, non_sharing),
        "temporal": (None, non_sharing)}[relation]
    if positives is None:
        assert all(cells(t, 1.0) == [(2, 0)] for t in terms)
    else:
        assert_uniform([cell for t in terms for cell in cells(t, 1.0)], positives)
    assert_uniform([cell for t in terms for cell in cells(t, 0.0)], negatives)


def test_unplanned_center_refused_while_a_plan_is_pending(shared_dx_graph):
    graph, _, _ = shared_dx_graph
    sampler, same = Sampler(graph, SamplerConfig(), 1), Sampler(graph, SamplerConfig(), 1)
    sampler.plan([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"center \(0, 1\) is not the next planned one, \(1, 0\)"):
        sampler.sample_context(0, 1)
    # the refusal drew nothing and kept the plan
    same.plan([(1, 0), (0, 1)])
    assert sampler.sample_context(1, 0) == same.sample_context(1, 0)
    assert sampler.sample_context(0, 1) == same.sample_context(0, 1)
    # with nothing planned, any center is drawn alone: as a plan of one
    same.plan([(2, 0)])
    assert sampler.sample_context(2, 0) == same.sample_context(2, 0)
