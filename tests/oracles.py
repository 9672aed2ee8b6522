"""Reference implementations the program's fast paths are checked against.

These moved here from src/hgm_ehr, unedited, once no pipeline stage called
them:

- `NodeId`, a node as its type and index, which `neighbors` and
  `exact_softmax_loss` take;
- `neighbors`, every node's one-hop neighbors as NodeId lists, read from the
  graph's masks;
- `context_from_terms`, a ContextSample built from four Terms by the chunk
  draw's own `_contexts`;
- `Relation`, the four relations in term order, which `loss_and_grad` walks;
- `exact_softmax_loss`, the full-softmax skip-gram loss over every node's
  embedding (`embed_all`), tractable on toy graphs only;
- `ce_loss` and `backward`, one (T, F) grid's CNN loss and its gradients.

`loss_and_grad` is the HGM training step that `hgm_ehr.hgm._loss_and_grad`
replaced: one gather, activation and score product per relation, full-shape
zero gradients summed into, and one `_column_sums` bincount per vocabulary.
Its body is the step the training path ran before, unedited; the new step
must equal it in every gradient bit, score and positive, and in the loss to
rounding.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from hgm_ehr.cnn import CnnParams, _batch_backward
from hgm_ehr.graph import HeteroGraph, NodeType
from hgm_ehr.hgm import ACTIVATIONS, PARAM_FIELDS, HgmParams, _sigmoid_act
from hgm_ehr.sampler import ContextSample, _contexts


class NodeId(NamedTuple):
    type: NodeType
    index: "int | tuple[int, int]"


def neighbors(graph: HeteroGraph, node: NodeId, target_type: NodeType) -> list[NodeId]:
    """One-hop neighbors of the requested type, sorted and deduplicated.

    Patient-hour to patient-hour neighborhoods are the hour nodes of other
    patients sharing at least one diagnosis, plus the temporal next node.
    Each is read as a boolean mask over the target type's nodes: a
    (patient, hour) mask for patient-hours.
    """
    window = graph.window_hours
    mask = np.zeros(0, dtype=bool)
    if node.type is NodeType.PATIENT_HOUR:
        p, h = node.index
        if target_type is NodeType.LAB:
            mask = graph.observed[p, h]
        elif target_type is NodeType.DIAGNOSIS:
            mask = graph.diagnosed[p]
        else:
            sharing = graph.diagnosed[:, graph.diagnosed[p]].any(axis=1)
            sharing[p] = False
            mask = np.repeat(sharing[:, None], window, axis=1)
            if h > 0:
                mask[p, h - 1] = True
    elif target_type is NodeType.PATIENT_HOUR:
        if node.type is NodeType.LAB:
            mask = graph.observed[:, :, node.index]
        else:
            mask = np.repeat(graph.diagnosed[:, node.index, None], window, axis=1)
    return [NodeId(target_type, tuple(i) if mask.ndim == 2 else i[0])
            for i in np.argwhere(mask).tolist()]


def context_from_terms(graph: HeteroGraph, center: tuple[int, int], terms) -> ContextSample:
    """The ContextSample of center (p, h) of the graph with four Terms (tested,
    diagnosed, co-patient, temporal), derived as a chunk derives its contexts'."""
    return _contexts([center], [(t.index[None], t.target[None], np.ones((1, len(t.target)), bool))
                                for t in terms], [True], graph.n_labs, graph.window_hours)[0]


class Relation(Enum):
    TESTED = "tested"
    DIAGNOSED = "diagnosed"
    CO_PATIENT = "co_patient"
    TEMPORAL = "temporal"


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _column_sums(index: np.ndarray, terms: np.ndarray, n_columns: int) -> np.ndarray:
    """(d, n_columns) matrix whose column i sums the term columns with index == i.

    One bincount over flat (column, row) offsets, in place of a generic
    fancy-index scatter-add (ufunc.at) into zeros, which is several times
    slower per call. The offsets follow the terms' own row-major layout, so
    bincount adds each cell's terms in term order starting from 0.0, as that
    scatter-add does, and repeated indices give the same bits.
    """
    d = terms.shape[0]
    flat = (index * d + np.arange(d)[:, None]).ravel()
    sums = np.bincount(flat, weights=terms.ravel(), minlength=n_columns * d)
    return sums.reshape(n_columns, d).T


def loss_and_grad(params: HgmParams, graph: HeteroGraph, context: ContextSample):
    """(loss, gradients, scores, positive mask) of one context, scores in term order."""
    act, deriv = ACTIVATIONS[params.activation]
    x_u = graph.values[context.center]
    c_u = act(params.w_p @ x_u)

    # Scores relation by relation, then the elementwise tail (softplus loss,
    # sigmoid - target) once over all of them. c_t is the side that carries the
    # translation: the labs for tested, the center otherwise (co-patient: none).
    present, scores, targets = [], [], []
    for relation, (index, y) in zip(Relation, context.terms):
        if not y.size:
            continue
        x_v = None
        if relation is Relation.TESTED:
            c_v = act(params.w_i[:, index])
            c_t = c_v + params.r_ip[:, None]
            s = c_t.T @ c_u
        elif relation is Relation.DIAGNOSED:
            c_v = act(params.w_d[:, index])
            c_t = c_u + params.r_pd
            s = c_v.T @ c_t
        else:
            x_v = graph.values[index[:, 0], index[:, 1]].T
            c_v = act(params.w_p @ x_v)
            c_t = c_u + params.r_tt if relation is Relation.TEMPORAL else c_u
            s = c_v.T @ c_t
        present.append((relation, index, c_v, c_t, x_v))
        scores.append(s)
        targets.append(y)
    s = np.concatenate(scores) if scores else np.zeros(0)
    y = np.concatenate(targets) if targets else np.zeros(0)
    pos = y == 1.0
    loss = float(_softplus(np.where(pos, -s, s)).sum())

    grads = HgmParams(*(np.zeros(getattr(params, name).shape) for name in PARAM_FIELDS),
                      params.activation)
    dc_u = np.zeros(params.d)
    g_all = _sigmoid_act(s) - y
    start = 0
    for relation, index, c_v, c_t, x_v in present:
        g = g_all[start:start + len(index)]
        start += len(index)
        if relation is Relation.TESTED:
            grads.r_ip += float(g.sum()) * c_u
            dc_u += c_t @ g
            grads.w_i = _column_sums(index, c_u[:, None] * g * deriv(c_v), params.n_labs)
            continue
        c_vg = c_v @ g
        dc_u += c_vg
        d_cv = c_t[:, None] * g
        if relation is Relation.DIAGNOSED:
            grads.r_pd += c_vg
            grads.w_d = _column_sums(index, d_cv * deriv(c_v), params.n_diagnoses)
        else:
            if relation is Relation.TEMPORAL:
                grads.r_tt += c_vg
            grads.w_p += (d_cv * deriv(c_v)) @ x_v.T
    grads.w_p += (dc_u * deriv(c_u))[:, None] * x_u
    return loss, grads, s, pos


def embed_all(params: HgmParams, graph: HeteroGraph):
    """Embeddings of every node: (patient-hour P x T x d, lab L x d, diagnosis D x d)."""
    act, _ = ACTIVATIONS[params.activation]
    c_ph = act(graph.values @ params.w_p.T)
    c_lab = act(params.w_i.T.copy())
    c_dx = act(params.w_d.T.copy())
    return c_ph, c_lab, c_dx


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + float(np.log(np.sum(np.exp(x - m))))


def softmax_context_loss(neighbor_scores, candidate_scores) -> float:
    """-sum over neighbors of (score - log sum of exp over all candidates)."""
    neighbor_scores = np.asarray(neighbor_scores, dtype=float)
    if neighbor_scores.size == 0:
        return 0.0
    log_z = _logsumexp(np.asarray(candidate_scores, dtype=float))
    return float(-np.sum(neighbor_scores - log_z))


def exact_softmax_loss(params: HgmParams, graph: HeteroGraph, center: NodeId) -> float:
    """Full-softmax skip-gram loss for one center; tractable oracles only.

    The normalizer sums translated scores over every vertex of every type;
    patient-hour neighbors (co-patients and the temporal next node alike)
    score as plain dot products on the candidate side.
    """
    c_ph, c_lab, c_dx = embed_all(params, graph)
    c_u = c_ph[center.index]
    candidates = np.concatenate([
        (c_ph @ c_u).ravel(),
        (c_lab + params.r_ip) @ c_u,
        c_dx @ (c_u + params.r_pd),
    ])
    neighbor_scores = (
        [float((c_lab[n.index] + params.r_ip) @ c_u)
         for n in neighbors(graph, center, NodeType.LAB)]
        + [float(c_dx[n.index] @ (c_u + params.r_pd))
           for n in neighbors(graph, center, NodeType.DIAGNOSIS)]
        + [float(c_ph[n.index] @ c_u)
           for n in neighbors(graph, center, NodeType.PATIENT_HOUR)]
    )
    return softmax_context_loss(neighbor_scores, candidates)


def ce_loss(probabilities, label, weight: float = 1.0) -> float:
    """Cross-entropy -log p[label], probability clamped at 1e-12."""
    p = max(float(np.asarray(probabilities)[int(label)]), 1e-12)
    return -weight * float(np.log(p))


def backward(params: CnnParams, x: np.ndarray, label, weight: float = 1.0) -> CnnParams:
    """Exact gradients of ce_loss(forward(params, x), label)."""
    _, grads = _batch_backward(params, x[None, :, :],
                               np.array([int(label)]), np.array([float(weight)]))
    return grads
