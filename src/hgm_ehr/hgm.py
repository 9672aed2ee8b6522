"""Heterogeneous graph embedding model.

Every node is projected into a shared d-dimensional space through a
per-type matrix and a nonlinearity; relations act as vector translations
in that space, so a connected pair scores high under a translated dot
product. Training maximizes the probability of a patient-hour's sampled
neighborhood with negative sampling; an exact full-softmax loss is kept
as a small-scale oracle.

Relation scoring (neighbor side first where translated):
    tested    lab i:        score = (c_i + r_ip) . c_u
    diagnosed diagnosis j:  score = (c_u + r_pd) . c_j
    co-patient:             score = c_u . c_v
    temporal next node:     score = (c_u + r_tt) . c_next

A training step reads the context's (p, h) center and per-relation term
arrays directly, with no NodeId: lab and diagnosis terms select columns of
W_i / W_d, (patient, hour) terms select hours of graph.values, and the gradients
come back as an HgmParams of the parameters' shapes. Each relation's
products stay its own gemv/gemm; the elementwise tail (softplus loss,
sigmoid(s) - y) runs once over the four relations' concatenated scores, so
gradients are bit for bit those of one pass per relation and only the loss,
one sum, may differ in its last bits. Lab and diagnosis gradients are
scattered into their columns by one bincount over flat offsets
(_column_sums), which sums repeated indices in the same order, and so to
the same bits, as a generic scatter-add into zeros, at a fraction of its
per-call cost.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .checkpoint import load_arrays, load_container, save_container
from .graph import HeteroGraph, NodeId, NodeType, neighbors
from .sampler import ContextSample, Sampler, SamplerConfig, UntrainableCenterError
from .seeds import derive_seed

logger = logging.getLogger(__name__)


def _tanh_deriv(y):
    return 1.0 - y * y


def _sigmoid_act(x):
    # exp(-|x|) never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below.
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _sigmoid_deriv(y):
    return y * (1.0 - y)


def _relu_deriv(y):
    return (y > 0).astype(float)


# activation name -> (apply, derivative expressed in terms of the output)
ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_deriv),
    "sigmoid": (_sigmoid_act, _sigmoid_deriv),
    "relu": (lambda x: np.maximum(x, 0.0), _relu_deriv),
}


class Relation(Enum):
    TESTED = "tested"
    DIAGNOSED = "diagnosed"
    CO_PATIENT = "co_patient"
    TEMPORAL = "temporal"


PARAM_FIELDS = ("w_p", "w_i", "w_d", "r_ip", "r_pd", "r_tt")

# train_hgm and cnn.train_cnn stop once any parameter entry exceeds this in
# magnitude. HGM runs that converge stay below 35: at most 28 in the test
# suite and the benchmark workloads (d = 16 and 128), 33.8 on a 10-epoch
# criterion-4 desk fold. A relu run at learning rate 50 that blows up and then
# collapses to a constant finite loss passes 1e36 in its first epoch. CNN
# parameters stay below 1 on fold 0 of the desk and 48 h benchmark workloads;
# on a 40-patient corpus at learning rate 1e3 they pass 1e22 within 5 epochs.
MAX_PARAM_ABS = 1e6


@dataclass
class HgmParams:
    """Projection matrices (d x input_dim) and relation translation vectors."""

    w_p: np.ndarray
    w_i: np.ndarray
    w_d: np.ndarray
    r_ip: np.ndarray
    r_pd: np.ndarray
    r_tt: np.ndarray
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def d(self) -> int:
        return self.w_p.shape[0]

    @property
    def n_labs(self) -> int:
        return self.w_i.shape[1]

    @property
    def n_diagnoses(self) -> int:
        return self.w_d.shape[1]


@dataclass(frozen=True)
class HgmTrainConfig:
    epochs: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    d: int = 128
    activation: str = "tanh"
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.min_learning_rate < 0:
            raise ValueError("min_learning_rate must be >= 0")
        if self.min_learning_rate > self.learning_rate:
            raise ValueError("min_learning_rate must not exceed learning_rate")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.d < 2:
            raise ValueError("embedding dimension must be >= 2")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def init_params(d, n_labs, n_diagnoses, activation="tanh", seed=0) -> HgmParams:
    """Seeded uniform init in [-0.5/d, 0.5/d) per entry; W_p and W_i both take n_labs inputs."""
    rng = np.random.default_rng(seed)
    bound = 0.5 / d
    def u(*shape):
        return rng.uniform(-bound, bound, size=shape)
    return HgmParams(
        w_p=u(d, n_labs), w_i=u(d, n_labs), w_d=u(d, n_diagnoses),
        r_ip=u(d), r_pd=u(d), r_tt=u(d), activation=activation,
    )


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


def _loss_and_grad(params: HgmParams, graph: HeteroGraph, context: ContextSample):
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


def ns_loss(params: HgmParams, graph: HeteroGraph, context: ContextSample) -> float:
    """Negative-sampling loss: -log sigmoid(score) for positives plus
    -log sigmoid(-score) for their negatives, translated scoring throughout."""
    return _loss_and_grad(params, graph, context)[0]


def ns_grad(params: HgmParams, graph: HeteroGraph, context: ContextSample) -> HgmParams:
    """Exact analytic gradients of ns_loss, shaped as HgmParams; entries
    untouched by the context are zero."""
    return _loss_and_grad(params, graph, context)[1]


def train_hgm(graph: HeteroGraph, config: HgmTrainConfig, seed: int, on_epoch=None) -> HgmParams:
    """SGD over epochs x shuffled patient-hour centers, one context per step:
    each epoch permutes the P*T flat row numbers, row r being center (p, h) = divmod(r, T),
    and plans that visit order with the sampler, which draws the contexts ahead in chunks.

    Learning rate decays linearly from config.learning_rate to
    config.min_learning_rate over the full schedule. Untrainable centers
    (no diagnoses, no labs) are skipped and counted. Deterministic per seed.
    Raises FloatingPointError when an epoch ends with a non-finite mean loss
    or a parameter entry that is non-finite or above MAX_PARAM_ABS in magnitude.
    """
    params = init_params(
        config.d, graph.n_labs, graph.n_diagnoses,
        activation=config.activation, seed=derive_seed(seed, "hgm-init"),
    )
    sampler = Sampler(graph, config.sampler, derive_seed(seed, "hgm-sampler"))
    shuffle_rng = np.random.default_rng(derive_seed(seed, "hgm-shuffle"))
    n_centers = graph.n_patients * graph.window_hours
    total_steps = max(1, config.epochs * n_centers)
    lr_span = config.learning_rate - config.min_learning_rate

    step = 0
    skipped = 0
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        n_contexts = 0
        centers = np.stack(np.divmod(shuffle_rng.permutation(n_centers), graph.window_hours),
                           axis=1)
        sampler.plan(centers)
        for p, h in centers.tolist():
            lr = config.min_learning_rate + lr_span * (1.0 - step / total_steps)
            step += 1
            try:
                context = sampler.sample_context(p, h)
            except UntrainableCenterError:
                skipped += 1
                continue
            loss, grads, _, _ = _loss_and_grad(params, graph, context)
            epoch_loss += loss
            n_contexts += 1
            for name in PARAM_FIELDS:
                param = getattr(params, name)
                param -= lr * getattr(grads, name)
        mean_loss = epoch_loss / max(1, n_contexts)
        # Diverging runs overflow the scores, and so the loss, before the parameters.
        # np.max keeps a NaN entry, which then fails the bound.
        largest = float(np.max([np.max(np.abs(getattr(params, name))) for name in PARAM_FIELDS]))
        if not (np.isfinite(mean_loss) and largest <= MAX_PARAM_ABS):
            raise FloatingPointError(
                f"hgm: non-finite loss, or a parameter non-finite or beyond {MAX_PARAM_ABS:g}, "
                f"after epoch {epoch + 1}/{config.epochs} (step {step} of {total_steps}): "
                f"mean loss {mean_loss:.4g}, max |parameter| {largest:.4g}"
            )
        logger.info("hgm epoch %d/%d mean loss %.4f", epoch + 1, config.epochs, mean_loss)
        if on_epoch is not None:
            on_epoch(epoch, mean_loss)
    if skipped:
        logger.info("skipped %d untrainable center visits", skipped)
    return params


def embed_hours(params: HgmParams, values: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Patient-hour embeddings, (P, T, d), from (P, T, n_labs) hours, oldest first.

    An hour with any observed lab is activation(W_p . x), computed as a
    stack of matrix-vector products: they give the same bits as one
    `W_p @ x` per hour, which a single `X @ W_p.T` product does not. A
    fully-missing hour chains from the previous hour: previous + r_tt (the
    temporal translation), or the zero vector when there is no previous hour.
    """
    act, _ = ACTIVATIONS[params.activation]
    emb = act((params.w_p[None, None] @ values[..., None])[..., 0])
    missing = ~observed.any(axis=2)
    for t in range(values.shape[1]):
        rows = missing[:, t]
        emb[rows, t] = emb[rows, t - 1] + params.r_tt if t else 0.0
    return emb


def save_params(params: HgmParams, path) -> None:
    save_container(path, kind="hgm", payload={
        "activation": params.activation,
        "dims": {
            "d": params.d, "labs": params.n_labs, "diagnoses": params.n_diagnoses,
        },
        "arrays": {
            "w_p": params.w_p.tolist(), "w_i": params.w_i.tolist(), "w_d": params.w_d.tolist(),
            "r_ip": params.r_ip.tolist(), "r_pd": params.r_pd.tolist(), "r_tt": params.r_tt.tolist(),
        },
    })


def load_params(path) -> HgmParams:
    payload = load_container(path, kind="hgm")
    activation = payload.get("activation")
    if activation not in ACTIVATIONS:
        raise ValueError(f"{path}: unknown activation {activation!r}; "
                         f"expected one of {sorted(ACTIVATIONS)}")
    return HgmParams(**load_arrays(path, payload, {
        "w_p": ("d", "labs"), "w_i": ("d", "labs"), "w_d": ("d", "diagnoses"),
        "r_ip": ("d",), "r_pd": ("d",), "r_tt": ("d",),
    }), activation=activation)
