import tracemalloc

import numpy as np
import pytest

from hgm_ehr.graph import NodeType, build_graph
from hgm_ehr.hgm import PARAM_FIELDS
from hgm_ehr.ingest import LabNormalizer, PatientRecord, Vocabulary, bin_events, event_array
from hgm_ehr.sampler import Terms

from oracles import NodeId, context_from_terms, exact_softmax_loss


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unit_normalizer(n_labs):
    """A normalizer that z-scores nothing: (v - 0.0) / 1.0 is v bit for bit, -0.0 included,
    so bin_events under it gives the raw hourly means."""
    return LabNormalizer(np.zeros(n_labs), np.ones(n_labs))


def make_record(pid, events, diagnoses, died=False, end_hour=20):
    """events: iterable of (hours_before_end, lab_id, value)."""
    return PatientRecord(
        patient_id=pid,
        events=event_array((float(t), lab, float(v)) for t, lab, v in events),
        diagnoses=set(diagnoses),
        died=died,
        end_hour=end_hour,
    )


def terms_from_nodes(positives, negatives, node_type):
    """One relation's Terms from NodeId positives, one tuple of negatives per positive."""
    if len(positives) != len(negatives):
        raise ValueError(f"{len(positives)} {node_type.value} positives but "
                         f"{len(negatives)} negative groups")
    index, target = [], []
    for pos, negs in zip(positives, negatives):
        for node, y in [(pos, 1.0)] + [(neg, 0.0) for neg in negs]:
            if node.type is not node_type:
                raise ValueError(f"expected a {node_type.value} node, got {node.type.value}")
            index.append(node.index)
            target.append(y)
    index = np.array(index, dtype=np.int64)
    if node_type is NodeType.PATIENT_HOUR:
        index = index.reshape(-1, 2)
    return Terms(index, np.array(target, dtype=float))


def cells(terms, target):
    """The indices of the terms with this target: ids, or (patient, hour) tuples."""
    return [tuple(i) if isinstance(i, list) else i
            for i in terms.index[terms.target == target].tolist()]


def positives(context, relation):
    """The context's positives of one relation, in term order: relation 0 tested,
    1 diagnosed (ids), 2 co-patient, 3 temporal ((patient, hour) tuples)."""
    return cells(context.terms[relation], 1.0)


def make_context(graph, center, pos_labs=(), neg_labs=(), pos_diagnoses=(), neg_diagnoses=(),
                 pos_patients=(), neg_patients=(), pos_temporal=None, neg_temporal=()):
    """A ContextSample of the graph around center (p, h) from NodeId tuples: one tuple
    of negatives per positive, a flat tuple for the single temporal positive."""
    if pos_temporal is None and neg_temporal:
        raise ValueError("temporal negatives without a temporal positive")
    temporal = (pos_temporal,) if pos_temporal is not None else ()
    return context_from_terms(graph, center, (
        terms_from_nodes(tuple(pos_labs), tuple(neg_labs), NodeType.LAB),
        terms_from_nodes(tuple(pos_diagnoses), tuple(neg_diagnoses), NodeType.DIAGNOSIS),
        terms_from_nodes(tuple(pos_patients), tuple(neg_patients), NodeType.PATIENT_HOUR),
        terms_from_nodes(temporal, (tuple(neg_temporal),) if temporal else (),
                         NodeType.PATIENT_HOUR),
    ))


def binned_graph(records, vocab, window_hours):
    """build_graph over the records binned at window_hours (values as given)."""
    return build_graph(records, vocab,
                       bin_events(records, window_hours, unit_normalizer(vocab.n_labs)))


def toy_vocab(n_labs=3, n_diagnoses=3):
    return Vocabulary(
        labs=[f"lab_{i}" for i in range(n_labs)],
        diagnoses=[f"dx_{i}" for i in range(n_diagnoses)],
    )


def toy_records():
    """2 patients x 2 hours + 3 labs + 3 diagnoses = 10 nodes.

    The two patients share no diagnosis and no lab, and each patient's two
    hour vectors point the same way, so the two-cluster geometry the
    training objective asks for is realizable.
    """
    return [
        make_record("p0", [(0.5, 0, 1.0), (1.2, 0, 0.5), (1.7, 1, -0.6)], {0}, died=True),
        make_record("p1", [(0.3, 2, 2.0), (1.4, 2, 0.8)], {2}, died=False),
    ]


@pytest.fixture
def toy_graph():
    records = toy_records()
    vocab = toy_vocab()
    return binned_graph(records, vocab, 2), vocab, records


@pytest.fixture
def shared_dx_graph():
    """Three patients where p0/p1 share diagnosis 1, for co-patient sampling."""
    records = [
        make_record("p0", [(0.5, 0, 1.0), (1.5, 1, 2.0)], {0, 1}, died=True),
        make_record("p1", [(0.5, 2, -1.0), (1.5, 2, 0.3)], {1, 2}, died=False),
        make_record("p2", [(0.5, 3, 0.1)], {3}, died=False),
    ]
    vocab = toy_vocab(n_labs=4, n_diagnoses=4)
    return binned_graph(records, vocab, 2), vocab, records


def patient_hour_centers(graph):
    return [NodeId(NodeType.PATIENT_HOUR, hour)
            for hour in np.ndindex(graph.n_patients, graph.window_hours)]


def total_exact_loss(params, graph):
    return sum(exact_softmax_loss(params, graph, c) for c in patient_hour_centers(graph))


def exact_loss_fd_step(params, graph, lr=0.1, h=1e-5):
    """One full-gradient descent step on the summed exact softmax loss,
    with the gradient taken by central finite differences."""
    grads = []
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = total_exact_loss(params, graph)
            arr[idx] = orig - h
            down = total_exact_loss(params, graph)
            arr[idx] = orig
            grad[idx] = (up - down) / (2 * h)
        grads.append(grad)
    for name, grad in zip(PARAM_FIELDS, grads):
        getattr(params, name)[...] -= lr * grad
