"""Heterogeneous graph embedding model.

Every node is projected into a shared d-dimensional space through a
per-type matrix and a nonlinearity; relations act as vector translations
in that space, so a connected pair scores high under a translated dot
product. Training maximizes the probability of a patient-hour's sampled
neighborhood with negative sampling (the exact full-softmax loss, a
small-scale oracle, is in tests/oracles.py).

Relation scoring (neighbor side first where translated):
    tested    lab i:        score = (c_i + r_ip) . c_u
    diagnosed diagnosis j:  score = (c_u + r_pd) . c_j
    co-patient:             score = c_u . c_v
    temporal next node:     score = (c_u + r_tt) . c_next

A training step (_loss_and_grad) reads a ContextSample's arrays as the
sampler prepared them, with no node object and no per-relation loop: the (p, h)
center; lab and diagnosis terms as columns of [W_i | W_d], the head of
params.flat, gathered in one call and activated once; co-patient and temporal
terms as rows of graph.values viewed as (patients * hours, labs), gathered in
one call; and the targets of all four relations in term order. The elementwise
tail (sigmoid(s) - y, and the softplus loss from the same exponentials)
runs once over the four relations' concatenated scores, and the lab and
diagnosis column gradients come from one bincount over flat (column, row)
offsets, which adds each cell's terms in term order starting from 0.0, as a
scatter-add into zeros does. Every HgmParams holds its six arrays as views
of one flat buffer, params.flat; the step returns its gradient as one flat
array in that layout, and train_hgm updates all six with one subtraction.

Every parameter bit equals that of one pass per relation (the oracle in
tests/oracles.py); only the loss, one sum, may differ in its last bits.
That holds because each product keeps its operands' layouts, which decide
the BLAS kernel's bits: a gathered term block is F-ordered, as
`W[:, index]` is, and a relation's block is a contiguous slice of its
gather; each relation keeps its own score gemv, gemm and dc_u gemv, summed
in relation order (dc_u: tested, diagnosed, co-patient, temporal; W_p:
co-patient, temporal, center). A transposed gemv over a column block of a
C-ordered matrix, such as one merged co-patient and temporal gemm's output,
can differ in its last bits from the same product on a contiguous copy.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_arrays, load_container, save_container
from .graph import HeteroGraph
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
    """Projection matrices (d x input_dim) and relation translation vectors: six views of one
    new buffer, `flat` (_views), that the constructor (and so replace, copy and pickle) fills
    from the given arrays. Write fields in place, never rebind them: the step reads `flat`."""

    w_p: np.ndarray
    w_i: np.ndarray
    w_d: np.ndarray
    r_ip: np.ndarray
    r_pd: np.ndarray
    r_tt: np.ndarray
    activation: str = "tanh"
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for name in ("w_p", "w_d"):
            if np.ndim(value := getattr(self, name)) != 2 or not len(value):
                raise ValueError(f"{name} must be 2-D with a row, got shape {np.shape(value)}")
        (d, n_labs), n_diagnoses = np.shape(self.w_p), np.shape(self.w_d)[1]
        self.flat = np.empty((2 * n_labs + n_diagnoses + 3) * d)
        for name, view in zip(PARAM_FIELDS, _views(self.flat, d, n_labs)):
            if np.shape(value := getattr(self, name)) != view.shape:
                raise ValueError(f"{name} has shape {np.shape(value)}, expected {view.shape}")
            view[...] = value
            setattr(self, name, view)

    def __reduce__(self):
        return type(self), (*(getattr(self, name) for name in PARAM_FIELDS), self.activation)

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
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.min_learning_rate < 0:
            raise ValueError(f"min_learning_rate must be >= 0, got {self.min_learning_rate}")
        if self.min_learning_rate > self.learning_rate:
            raise ValueError(f"min_learning_rate must not exceed learning_rate "
                             f"{self.learning_rate}, got {self.min_learning_rate}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(ACTIVATIONS)}, "
                             f"got {self.activation!r}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def _views(flat: np.ndarray, d: int, n_labs: int) -> tuple:
    """The six parameter views of a flat buffer, in PARAM_FIELDS order. The buffer holds
    W_i then W_d column by column (a column's d cells adjacent, as _loss_and_grad's
    bincount lays out its sums), then W_p row by row, r_ip, r_pd and r_tt."""
    columns = flat.size - (n_labs + 3) * d
    w_id = flat[:columns].reshape(-1, d).T
    r = flat[columns + d * n_labs:].reshape(3, d)
    return (flat[columns:columns + d * n_labs].reshape(d, n_labs), w_id[:, :n_labs],
            w_id[:, n_labs:], r[0], r[1], r[2])


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


@functools.lru_cache(maxsize=8)
def _cells(d: int, n_columns: int) -> np.ndarray:
    """Read-only (n_columns, d) offsets of each column's d cells in a flat gradient."""
    cells = np.arange(n_columns * d).reshape(n_columns, d)
    cells.flags.writeable = False
    return cells


def _loss_and_grad(params: HgmParams, graph: HeteroGraph, context: ContextSample):
    """(loss, flat gradient in params.flat's layout, scores in term order, positive mask)."""
    act, deriv = ACTIVATIONS[params.activation]
    n_lab, n_dx, n_cp, _ = context.sizes
    n_id = n_lab + n_dx
    d, n_labs = params.w_p.shape
    x_u = graph.values[context.center]
    c_u = act(params.w_p @ x_u)

    # Forward. Lab and diagnosis terms: [W_i | W_d] columns, params.flat's head, in one gather
    # (F-ordered, as W_i[:, index] is) and one activation; patient-hour terms: graph.values rows.
    columns = params.flat[:(n_labs + params.n_diagnoses) * d].reshape(-1, d)
    c_id = act(columns.take(context.columns, axis=0).T)
    c_lab, c_dx = c_id[:, :n_lab], c_id[:, n_lab:]
    x_ph = graph.values.reshape(-1, n_labs).take(context.rows, axis=0)
    x_cp, x_tt = x_ph[:n_cp], x_ph[n_cp:]
    c_cp = act(params.w_p @ x_cp.T)
    c_tt = act(params.w_p @ x_tt.T)
    # The translated side: the labs for tested, the center otherwise (co-patient: none).
    c_lab_t = c_lab + params.r_ip[:, None]
    c_u_dx = c_u + params.r_pd
    c_u_tt = c_u + params.r_tt
    s = np.concatenate((c_lab_t.T @ c_u, c_dx.T @ c_u_dx, c_cp.T @ c_u, c_tt.T @ c_u_tt))

    # sigmoid(s) as _sigmoid_act computes it, and the loss from the same parts:
    # softplus(t) = max(t, 0) + log(1 + e^-|t|) with t = -s on positives, s on
    # negatives, so max(t, 0) is |s| where the sign of s disagrees with the target.
    y = context.target
    pos = y == 1.0
    a = np.abs(s)
    ex = np.exp(-a)
    q = 1.0 + ex
    nonnegative = s >= 0
    g = np.where(nonnegative, 1.0, ex) / q - y
    loss = float(np.log(q).sum() + np.where(pos ^ nonnegative, a, 0.0).sum())

    # Backward. The gradient is one flat array in params.flat's layout: the bincount of
    # the lab and diagnosis terms' (column, row) cells, term by term, fills its head,
    # which adds each cell's terms in term order starting from 0.0, as a scatter-add
    # into zeros does, and leaves its tail zero; the other gradients are written there.
    d_id = np.empty((d, n_id), order="F")
    np.multiply(c_u[:, None], g[:n_lab], out=d_id[:, :n_lab])
    np.multiply(c_u_dx[:, None], g[n_lab:n_id], out=d_id[:, n_lab:])
    d_id *= deriv(c_id)
    cells = _cells(d, len(columns)).take(context.columns, axis=0).ravel()
    grad = np.bincount(cells, weights=d_id.T.ravel(), minlength=params.flat.size)
    grad_w_p, _, _, grad_r_ip, grad_r_pd, grad_r_tt = _views(grad, d, n_labs)
    # dc_u adds tested, diagnosed, co-patient, then temporal; W_p adds co-patient,
    # then temporal, then center.
    g_cp, g_tt = g[n_id:n_id + n_cp], g[n_id + n_cp:]
    np.multiply(g[:n_lab].sum(), c_u, out=grad_r_ip)
    dc_u = c_lab_t @ g[:n_lab]
    dc_u += np.matmul(c_dx, g[n_lab:n_id], out=grad_r_pd)
    dc_u += c_cp @ g_cp
    dc_u += np.matmul(c_tt, g_tt, out=grad_r_tt)
    np.matmul(c_u[:, None] * g_cp * deriv(c_cp), x_cp, out=grad_w_p)
    grad_w_p += (c_u_tt[:, None] * g_tt * deriv(c_tt)) @ x_tt
    grad_w_p += (dc_u * deriv(c_u))[:, None] * x_u
    return loss, grad, s, pos


def ns_loss(params: HgmParams, graph: HeteroGraph, context: ContextSample) -> float:
    """Negative-sampling loss: -log sigmoid(score) for positives plus
    -log sigmoid(-score) for their negatives, translated scoring throughout."""
    return _loss_and_grad(params, graph, context)[0]


def ns_grad(params: HgmParams, graph: HeteroGraph, context: ContextSample) -> HgmParams:
    """Exact analytic gradients of ns_loss as HgmParams; entries the context misses are 0."""
    return HgmParams(*_views(_loss_and_grad(params, graph, context)[1], params.d, params.n_labs),
                     params.activation)


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
    params = init_params(config.d, graph.n_labs, graph.n_diagnoses,
                         activation=config.activation, seed=derive_seed(seed, "hgm-init"))
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
            loss, grad, _, _ = _loss_and_grad(params, graph, context)
            epoch_loss += loss
            n_contexts += 1
            params.flat -= lr * grad
        mean_loss = epoch_loss / max(1, n_contexts)
        # Diverging runs overflow the scores, and so the loss, before the parameters.
        # np.max keeps a NaN entry, which then fails the bound.
        largest = float(np.max(np.abs(params.flat)))
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
