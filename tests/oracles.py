"""Reference implementations the program's fast paths are checked against.

These moved here from src/hgm_ehr, unedited, once no pipeline stage called
them:

- `neighbors`, every node's one-hop neighbors as NodeId lists, read from the
  graph's masks;
- `context_from_terms`, a ContextSample built from four Terms by the chunk
  draw's own `_contexts`;
- `Relation`, the four relations in term order, which `loss_and_grad` walks;
- `exact_softmax_loss`, the full-softmax skip-gram loss over every node's
  embedding (`embed_all`), tractable on toy graphs only;
- `ce_loss` and `backward`, one (T, F) grid's CNN loss and its gradients.

ContextOracle is the per-context sampler that `hgm_ehr.sampler.Sampler`
replaced with its chunk draw: every context drawn on its own, with one
`Generator.integers` call per positive block, co-patient step and negative
block, its pools read from rows of the graph. Its `sample_context` is the
body the training path ran before, unedited but for its last statement,
which hands the four Terms to `context_from_terms`; the chunk draw must equal
it context for context and leave the generator in the same state.

`loss_and_grad` is the HGM training step that `hgm_ehr.hgm._loss_and_grad`
replaced: one gather, activation and score product per relation, full-shape
zero gradients summed into, and one `_column_sums` bincount per vocabulary.
Its body is the step the training path ran before, unedited; the new step
must equal it in every gradient bit, score and positive, and in the loss to
rounding.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from hgm_ehr.cnn import CnnParams, _batch_backward
from hgm_ehr.graph import HeteroGraph, NodeId, NodeType
from hgm_ehr.hgm import ACTIVATIONS, PARAM_FIELDS, HgmParams, _sigmoid_act
from hgm_ehr.sampler import (ContextSample, SamplerConfig, Terms, UntrainableCenterError,
                             _contexts, _targets)


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


class ContextOracle:
    """Seeded per-context sampler over a read-only graph."""

    def __init__(self, graph: HeteroGraph, config: SamplerConfig, seed: int):
        self.graph = graph
        self.config = config
        self.rng = np.random.default_rng(seed)
        self._carriers = [np.flatnonzero(column).tolist() for column in graph.diagnosed.T]
        self._n_carriers = graph.diagnosed.sum(axis=0)

    def _pools(self, p: int, h: int):
        """Center (p, h)'s pools: (diagnoses, labs), then negatives (diagnoses, labs, patients)."""
        dx, labs = self.graph.diagnosed[p], self.graph.observed[p, h]
        sharing = self.graph.diagnosed[:, dx].any(axis=1)
        sharing[p] = True
        return ((dx.nonzero()[0], labs.nonzero()[0]),
                ((~dx).nonzero()[0], (~labs).nonzero()[0], (~sharing).nonzero()[0]))

    def sample_context(self, p: int, h: int) -> ContextSample:
        """Draw one full skip-gram context around the patient-hour center (p, h)."""
        cfg = self.config
        integers = self.rng.integers
        window = self.graph.window_hours
        (dx_pool, lab_pool), (dx_neg, lab_neg, patient_neg) = self._pools(p, h)
        if dx_pool.size == 0 and lab_pool.size == 0:
            raise UntrainableCenterError(
                f"patient-hour ({p}, {h}) has no diagnoses and no observed labs"
            )

        # Each relation's terms are rows of one positive then its k negatives
        # (none when the negative pool is empty), filled in place.
        k = cfg.negatives_per_positive
        n_dx = cfg.n_diagnoses if dx_pool.size else 0
        n_lab = cfg.n_labs if lab_pool.size else 0
        k_dx = k if dx_neg.size else 0
        k_lab = k if lab_neg.size else 0
        k_ph = k if patient_neg.size else 0
        dx_rows = np.empty((n_dx, 1 + k_dx), dtype=np.int64)
        lab_rows = np.empty((n_lab, 1 + k_lab), dtype=np.int64)
        draws = integers(0, [dx_pool.size] * n_dx + [lab_pool.size] * n_lab)
        pos_diagnoses = dx_pool[draws[:n_dx]]
        dx_rows[:, 0] = pos_diagnoses
        lab_rows[:, 0] = lab_pool[draws[n_dx:]]

        # Co-patients: re-draw a sampled diagnosis, then a uniform hour node of
        # another patient carrying it. Diagnoses whose only carrier is the
        # center's patient cannot produce one and are skipped. The carrier
        # bound depends on the diagnosis drawn, so these draws go one by one.
        # Patient-hour rows are the co-patients, then the temporal node (p, h - 1).
        eligible = pos_diagnoses[self._n_carriers[pos_diagnoses] > 1].tolist()
        n_cp = cfg.n_copatients if eligible else 0
        n_ph = n_cp + (h > 0)
        hour_rows = np.empty((n_ph, 1 + k_ph, 2), dtype=np.int64)
        for i in range(n_cp):
            carriers = self._carriers[eligible[integers(0, len(eligible))]]
            pick = int(integers(0, len(carriers) - 1))  # among carriers other than p
            hour_rows[i, 0, 0] = carriers[pick] if carriers[pick] < p else carriers[pick + 1]
            hour_rows[i, 0, 1] = integers(0, window)
        if h > 0:
            hour_rows[n_cp, 0] = p, h - 1

        # Negatives: k per positive, patient-hours as k patients then k hours.
        bounds = (dx_neg.size, lab_neg.size) + (patient_neg.size, window) * n_ph
        draws = integers(0, np.repeat(bounds, (k_dx * n_dx, k_lab * n_lab) + (k_ph, k_ph) * n_ph))
        offset = k_dx * n_dx + k_lab * n_lab
        dx_rows[:, 1:] = dx_neg[draws[:k_dx * n_dx]].reshape(n_dx, k_dx)
        lab_rows[:, 1:] = lab_neg[draws[k_dx * n_dx:offset]].reshape(n_lab, k_lab)
        blocks = draws[offset:].reshape(n_ph, 2, k_ph)
        hour_rows[:, 1:, 0] = patient_neg[blocks[:, 0]]
        hour_rows[:, 1:, 1] = blocks[:, 1]

        return context_from_terms(self.graph, (p, h), (
            Terms(lab_rows.reshape(-1), _targets(n_lab, k_lab)),
            Terms(dx_rows.reshape(-1), _targets(n_dx, k_dx)),
            Terms(hour_rows[:n_cp].reshape(-1, 2), _targets(n_cp, k_ph)),
            Terms(hour_rows[n_cp:].reshape(-1, 2), _targets(n_ph - n_cp, k_ph)),
        ))


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
