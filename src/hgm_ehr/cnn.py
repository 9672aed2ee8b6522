"""Convolutional mortality classifier over hourly feature grids.

Features are assembled for a whole split at once from its binned (patient,
hour, lab) tensor: raw lab means, patient-hour embeddings, or both side by
side. That (P, T, F) array and a label vector are the classifier's only
input. Row p is patient p's (T, F) grid: one row per hour bin, oldest hour
first, features across the row. Training takes mini-batches of rows;
forward, backward and predict take one grid. Filters span the full feature
width and slide along time (valid padding), followed by ReLU, a global
max-pool over time, a dense layer and a two-way softmax. Backpropagation
is explicit; gradients flow only to each filter's argmax pool position
(first index on ties) and come back as a CnnParams. The pooled values and
each filter's argmax window are gathered with one `take` at flat offsets,
not a generic gather along an axis of the strided window view: the same
elements in the same order, so the same bits, without that kernel's
per-element indexing overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .checkpoint import load_arrays, load_container, save_container
from .hgm import HgmParams, embed_hours
from .seeds import derive_seed


class FeatureMode(Enum):
    RAW_LABS = "raw_labs"
    EMBED_ONLY = "embed_only"
    EMBED_PLUS_LABS = "embed_plus_labs"

    @property
    def needs_embedding(self) -> bool:
        return self in (FeatureMode.EMBED_ONLY, FeatureMode.EMBED_PLUS_LABS)


@dataclass
class CnnParams:
    """Classifier parameters; backward returns its gradients in the same shape."""

    filters: np.ndarray    # (n_filters, kernel, n_features)
    conv_bias: np.ndarray  # (n_filters,)
    dense_w: np.ndarray    # (n_filters, 2)
    dense_b: np.ndarray    # (2,)


@dataclass(frozen=True)
class CnnTrainConfig:
    n_filters: int = 32
    kernel: int = 3
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    class_weighting: bool = True

    def validate(self) -> None:
        if self.n_filters < 1 or self.kernel < 1:
            raise ValueError("n_filters and kernel must be >= 1")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid training hyperparameters")


def build_features(binned, mode: FeatureMode, hgm_params: HgmParams | None = None) -> np.ndarray:
    """Assemble the (P, T, F) feature grids of a binned split.

    `binned` is the (values, observed) pair of ingest.bin_events. Rows run
    oldest to newest hour. The embedding block is hgm.embed_hours, so
    fully-missing hours inherit the previous hour's embedding plus the
    temporal translation; the lab block is the hour's lab means.
    """
    if mode.needs_embedding and hgm_params is None:
        raise ValueError(f"feature mode {mode.value} requires trained embedding parameters")
    values, observed = binned
    # a C-ordered copy: each patient's rows are one (T, F) block, and the
    # embedding matmul reads contiguous hour vectors
    labs = np.ascontiguousarray(values[:, ::-1])
    if mode is FeatureMode.RAW_LABS:
        return labs
    embeddings = embed_hours(hgm_params, labs, observed[:, ::-1])
    if mode is FeatureMode.EMBED_ONLY:
        return embeddings
    return np.concatenate([embeddings, labs], axis=2)


def init_cnn(n_features: int, config: CnnTrainConfig, seed: int | None = None) -> CnnParams:
    """Seeded Glorot-uniform filters and dense weights, zero biases."""
    config.validate()
    rng = np.random.default_rng(config.seed if seed is None else seed)
    fan_in = config.kernel * n_features
    limit = np.sqrt(6.0 / (fan_in + config.n_filters))
    filters = rng.uniform(-limit, limit, size=(config.n_filters, config.kernel, n_features))
    d_limit = np.sqrt(6.0 / (config.n_filters + 2))
    dense_w = rng.uniform(-d_limit, d_limit, size=(config.n_filters, 2))
    return CnnParams(
        filters=filters,
        conv_bias=np.zeros(config.n_filters),
        dense_w=dense_w,
        dense_b=np.zeros(2),
    )


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _batch_forward(params: CnnParams, batch: np.ndarray):
    """Forward pass over (B, T, F); returns probs plus the pooling cache."""
    n_filters, kernel, n_features = params.filters.shape
    if batch.shape[1] < kernel:
        raise ValueError(f"time dimension {batch.shape[1]} shorter than kernel {kernel}")
    if batch.shape[2] != n_features:
        raise ValueError(f"feature dimension {batch.shape[2]} does not match filters ({n_features})")
    # windows[b, j, c, a] = batch[b, j + a, c]
    windows = np.lib.stride_tricks.sliding_window_view(batch, kernel, axis=1)
    z = np.einsum("fac,bjca->bjf", params.filters, windows) + params.conv_bias
    relu = np.maximum(z, 0.0)
    pool_idx = relu.argmax(axis=1)
    # pooled[b, f] = relu[b, pool_idx[b, f], f], gathered at flat offsets
    n_batch, n_windows, _ = relu.shape
    rows = np.arange(n_batch)[:, None] * n_windows + pool_idx
    pooled = relu.ravel().take(rows * n_filters + np.arange(n_filters))
    logits = pooled @ params.dense_w + params.dense_b
    probs = _softmax_rows(logits)
    return probs, (pool_idx, pooled)


def _batch_backward(params: CnnParams, batch, labels, weights):
    """Summed weighted cross-entropy gradients over the batch."""
    probs, (pool_idx, pooled) = _batch_forward(params, batch)
    n, t_steps, n_features = batch.shape
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), labels] = 1.0
    d_logits = (probs - one_hot) * weights[:, None]

    d_dense_w = pooled.T @ d_logits
    d_dense_b = d_logits.sum(axis=0)
    d_pooled = d_logits @ params.dense_w.T

    # pooled = max(z, 0) at the argmax, so pooled > 0 exactly where z > 0 there
    d_z = d_pooled * (pooled > 0)
    # win_at[b, f, a, c] = batch[b, pool_idx[b, f] + a, c]: each filter's
    # argmax window, as rows of the batch flattened to (B*T, C)
    rows = (np.arange(n)[:, None, None] * t_steps + pool_idx[:, :, None]
            + np.arange(params.filters.shape[1]))
    win_at = batch.reshape(n * t_steps, n_features).take(rows, axis=0)
    d_filters = np.einsum("bf,bfac->fac", d_z, win_at)
    d_bias = d_z.sum(axis=0)
    return probs, CnnParams(d_filters, d_bias, d_dense_w, d_dense_b)


def forward(params: CnnParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities [survived, died] of one (T, F) grid; always sums to 1."""
    probs, _ = _batch_forward(params, x[None, :, :])
    return probs[0]


def ce_loss(probabilities, label, weight: float = 1.0) -> float:
    """Cross-entropy -log p[label], probability clamped at 1e-12."""
    p = max(float(np.asarray(probabilities)[int(label)]), 1e-12)
    return -weight * float(np.log(p))


def backward(params: CnnParams, x: np.ndarray, label, weight: float = 1.0) -> CnnParams:
    """Exact gradients of ce_loss(forward(params, x), label)."""
    _, grads = _batch_backward(params, x[None, :, :],
                               np.array([int(label)]), np.array([float(weight)]))
    return grads


def predict(params: CnnParams, x: np.ndarray) -> float:
    """Mortality score of one (T, F) grid: forward probability of the death class."""
    return float(forward(params, x)[1])


def train_cnn(features: np.ndarray, config: CnnTrainConfig, labels) -> CnnParams:
    """Seeded mini-batch SGD on (P, T, F) features and P binary labels.

    Deterministic given (features, config, labels).
    """
    config.validate()
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels).astype(int)
    if len(features) == 0:
        raise ValueError("empty training set")
    if features.ndim != 3 or labels.shape != (len(features),):
        raise ValueError(f"features {features.shape} and labels {labels.shape} do not match: "
                         "expected (P, T, F) and (P,)")
    n = len(features)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == n:
        raise ValueError("training set must contain both classes")

    if config.class_weighting:
        class_w = np.array([n / (2.0 * (n - n_pos)), n / (2.0 * n_pos)])
    else:
        class_w = np.ones(2)
    weights = class_w[labels]

    params = init_cnn(features.shape[2], config, seed=derive_seed(config.seed, "cnn-init"))
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "cnn-shuffle"))
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            take = order[start:start + config.batch_size]
            _, grads = _batch_backward(params, features[take], labels[take], weights[take])
            scale = config.learning_rate / take.size
            params.filters -= scale * grads.filters
            params.conv_bias -= scale * grads.conv_bias
            params.dense_w -= scale * grads.dense_w
            params.dense_b -= scale * grads.dense_b
    return params


def save_cnn(params: CnnParams, path) -> None:
    save_container(path, kind="cnn", payload={
        "dims": {
            "filters": params.filters.shape[0],
            "kernel": params.filters.shape[1],
            "features": params.filters.shape[2],
        },
        "arrays": {
            "filters": params.filters.tolist(),
            "conv_bias": params.conv_bias.tolist(),
            "dense_w": params.dense_w.tolist(),
            "dense_b": params.dense_b.tolist(),
        },
    })


def load_cnn(path) -> CnnParams:
    payload = load_container(path, kind="cnn")
    dims = payload["dims"]
    n_filters = dims["filters"]
    return CnnParams(**load_arrays(path, payload, {
        "filters": (n_filters, dims["kernel"], dims["features"]),
        "conv_bias": (n_filters,),
        "dense_w": (n_filters, 2),
        "dense_b": (2,),
    }))
