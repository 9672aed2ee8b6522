from dataclasses import fields, replace

import numpy as np
import pytest

from hgm_ehr.graph import HeteroGraph, NodeId, NodeType, all_nodes, build_graph, neighbors
from hgm_ehr.ingest import GenConfig, bin_events, generate_synthetic, synthetic_vocabulary

from conftest import binned_graph, make_record, toy_records, toy_vocab, unit_normalizer


def ph(p, h):
    return NodeId(NodeType.PATIENT_HOUR, (p, h))


def record_neighbors(records, n_labs, n_diagnoses, window):
    """Each node's sorted neighbors by target type, read from the records alone.

    An event t hours before the end tests its lab at hour int(t) when
    t < window; every hour of a patient carries the patient's diagnoses;
    the hours of two patients sharing a diagnosis are linked; hour h links
    to hour h - 1 of the same patient.
    """
    hour_nodes = [ph(p, h) for p in range(len(records)) for h in range(window)]
    nodes = (hour_nodes + [NodeId(NodeType.LAB, i) for i in range(n_labs)]
             + [NodeId(NodeType.DIAGNOSIS, j) for j in range(n_diagnoses)])
    edges = {node: {target_type: set() for target_type in NodeType} for node in nodes}

    def link(a, b):
        edges[a][b.type].add(b)
        edges[b][a.type].add(a)

    for p, rec in enumerate(records):
        for hours, lab, _value in rec.events.tolist():
            if hours < window:
                link(ph(p, int(hours)), NodeId(NodeType.LAB, lab))
        for dx in rec.diagnoses:
            for h in range(window):
                link(ph(p, h), NodeId(NodeType.DIAGNOSIS, dx))
        for h in range(1, window):
            edges[ph(p, h)][NodeType.PATIENT_HOUR].add(ph(p, h - 1))
        for q, other in enumerate(records):
            if q != p and rec.diagnoses & other.diagnoses:
                for h in range(window):
                    edges[ph(p, h)][NodeType.PATIENT_HOUR].update(
                        ph(q, hq) for hq in range(window))
    return {node: {target_type: sorted(found, key=lambda n: n.index)
                   for target_type, found in by_type.items()}
            for node, by_type in edges.items()}


class TestBuildGraph:
    def test_node_and_edge_counts(self):
        records = [make_record("p0", [], {1, 2})]
        graph = binned_graph(records, toy_vocab(3, 4), 6)
        assert graph.n_patients == 1
        assert graph.values.shape == (1, 6, 3)
        assert graph.diagnosed.tolist() == [[False, True, True, False]]
        # diagnoses attach at patient level, shared by every hour node
        for hour in range(6):
            assert [n.index for n in neighbors(graph, ph(0, hour), NodeType.DIAGNOSIS)] == [1, 2]

    def test_tested_edges_exact(self):
        records = [make_record("p0", [(2.5, 3, 7.0)], set())]
        graph = binned_graph(records, toy_vocab(5, 2), 6)
        expected = np.zeros((1, 6, 5), dtype=bool)
        expected[0, 2, 3] = True
        assert np.array_equal(graph.observed, expected)
        assert neighbors(graph, NodeId(NodeType.LAB, 3), NodeType.PATIENT_HOUR) == [ph(0, 2)]

    def test_corpus_scale_vocabulary_counts(self):
        vocab = toy_vocab(409, 3387)
        graph = binned_graph([make_record("p0", [], set())], vocab, 6)
        assert graph.n_labs == 409
        assert graph.n_diagnoses == 3387

    def test_values_mirror_snapshots(self):
        records = [make_record("p0", [(1.2, 0, 2.0), (1.9, 0, 4.0)], set())]
        graph = binned_graph(records, toy_vocab(2, 1), 3)
        assert graph.values[0, 1, 0] == pytest.approx(3.0)
        assert graph.observed[0, 1, 0]

    def test_graph_holds_the_binned_pair(self):
        records = toy_records()
        values, observed = bin_events(records, 2, unit_normalizer(3))
        graph = build_graph(records, toy_vocab(), (values, observed))
        assert graph.values is values and graph.observed is observed
        with pytest.raises(ValueError, match="does not match"):
            build_graph(records[:1], toy_vocab(), (values, observed))

    def test_sizes_are_read_from_the_arrays(self):
        graph = binned_graph(toy_records(), toy_vocab(3, 4), 2)
        assert [f.name for f in fields(HeteroGraph)] == ["values", "observed", "diagnosed"]
        assert (graph.n_patients, graph.window_hours, graph.n_labs, graph.n_diagnoses) == (2, 2, 3, 4)
        smaller = replace(graph, values=graph.values[:1, :1, :2], diagnosed=graph.diagnosed[:1, :3])
        assert (smaller.n_patients, smaller.window_hours, smaller.n_labs,
                smaller.n_diagnoses) == (1, 1, 2, 3)

    def test_transpose_consistency_random(self):
        """Every edge, seen from either end, is the one the records give."""
        cfg = GenConfig(n_patients=15, n_labs=8, n_diagnoses=10, window_hours=4)
        records = generate_synthetic(cfg, seed=7)
        graph = binned_graph(records, synthetic_vocabulary(cfg), 4)
        expected = record_neighbors(records, cfg.n_labs, cfg.n_diagnoses, 4)
        assert len(all_nodes(graph)) == len(expected)
        for node in all_nodes(graph):
            for target_type in NodeType:
                assert neighbors(graph, node, target_type) == expected[node][target_type], \
                    (node, target_type)
        # tested and diagnosed edges from both ends, co-patient and temporal
        # edges all occur, so none of the comparisons above is vacuous
        kinds = {(node.type, other.type,
                  node.type is other.type and node.index[0] == other.index[0])
                 for node, by_type in expected.items()
                 for found in by_type.values() for other in found}
        assert len(kinds) == 6

    def test_order_independence(self):
        cfg = GenConfig(n_patients=10, n_labs=5, n_diagnoses=6, window_hours=3)
        records = generate_synthetic(cfg, seed=3)
        vocab = synthetic_vocabulary(cfg)
        g1 = binned_graph(records, vocab, 3)
        g2 = binned_graph(records[::-1], vocab, 3)

        def keyed(graph, ordered):
            return {rec.patient_id: (graph.observed[p].tolist(), graph.diagnosed[p].tolist())
                    for p, rec in enumerate(ordered)}

        assert keyed(g1, records) == keyed(g2, records[::-1])

    def test_temporal_links_only_consecutive_hours(self):
        graph = binned_graph([make_record("p0", [], set())], toy_vocab(), 4)
        got = [neighbors(graph, ph(0, h), NodeType.PATIENT_HOUR) for h in range(4)]
        assert got == [[], [ph(0, 0)], [ph(0, 1)], [ph(0, 2)]]


class TestMultiHot:
    """A patient's diagnosis multi-hot is its row of graph.diagnosed."""

    @staticmethod
    def diagnosis_row(index_set, size):
        graph = binned_graph([make_record("p0", [], index_set)], toy_vocab(2, size), 1)
        return graph.diagnosed[0]

    def test_basic(self):
        assert self.diagnosis_row({1, 3}, 5).tolist() == [0, 1, 0, 1, 0]

    def test_empty(self):
        assert self.diagnosis_row(set(), 4).tolist() == [0, 0, 0, 0]

    def test_full_width_all_ones(self):
        vec = self.diagnosis_row(set(range(409)), 409)
        assert vec.shape == (409,)
        assert np.all(vec == 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="diagnosis id 4 outside vocabulary of size 4"):
            self.diagnosis_row({4}, 4)

    def test_support_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            size = int(rng.integers(1, 30))
            idx = set(rng.choice(size, size=rng.integers(0, size), replace=False).tolist())
            assert set(np.flatnonzero(self.diagnosis_row(idx, size)).tolist()) == idx


class TestNeighbors:
    def test_no_observed_labs_gives_empty(self):
        graph = binned_graph([make_record("p0", [], {0})], toy_vocab(), 2)
        assert neighbors(graph, ph(0, 0), NodeType.LAB) == []

    def test_shared_diagnosis_copatients(self, shared_dx_graph):
        graph, _, _ = shared_dx_graph
        got = neighbors(graph, ph(0, 0), NodeType.PATIENT_HOUR)
        indices = {n.index for n in got}
        # p1 shares diagnosis 1 with p0: all of p1's hours appear; p2 shares nothing
        assert (1, 0) in indices and (1, 1) in indices
        assert not any(q == 2 for q, _ in indices)
        assert not any(q == 0 for q, _ in indices)  # own patient excluded

    def test_temporal_neighbor_included(self):
        graph = binned_graph([make_record("p0", [], {0})], toy_vocab(), 6)
        got = neighbors(graph, ph(0, 3), NodeType.PATIENT_HOUR)
        assert NodeId(NodeType.PATIENT_HOUR, (0, 2)) in got

    def test_lab_reverse_neighbors(self):
        records = [make_record("p0", [(0.5, 1, 2.0)], set()),
                   make_record("p1", [(1.5, 1, 3.0)], set())]
        graph = binned_graph(records, toy_vocab(), 2)
        got = neighbors(graph, NodeId(NodeType.LAB, 1), NodeType.PATIENT_HOUR)
        assert [n.index for n in got] == [(0, 0), (1, 1)]

    def test_diagnosis_neighbors_are_all_patient_hours(self):
        records = [make_record("p0", [], {2}), make_record("p1", [], {0})]
        graph = binned_graph(records, toy_vocab(), 2)
        got = neighbors(graph, NodeId(NodeType.DIAGNOSIS, 2), NodeType.PATIENT_HOUR)
        assert [n.index for n in got] == [(0, 0), (0, 1)]


def test_all_nodes_covers_every_type(toy_graph):
    graph, _, _ = toy_graph
    nodes = all_nodes(graph)
    assert len(nodes) == 2 * 2 + 3 + 3
    assert len({n for n in nodes}) == len(nodes)
