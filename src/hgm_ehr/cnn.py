"""Convolutional mortality classifier over hourly feature grids.

Features are assembled for a whole split at once from its binned (patient,
hour, lab) tensor: raw lab means, patient-hour embeddings, or both side by
side. That (P, T, F) array and a label vector are the classifier's only
input. Row p is patient p's (T, F) grid: one row per hour bin, oldest hour
first, features across the row. Training takes mini-batches of rows;
forward and predict take one grid. Filters span the full feature
width and slide along time (valid padding), followed by ReLU, a global
max-pool over time, a dense layer and a two-way softmax. Backpropagation
is explicit; gradients flow only to each filter's argmax pool position
(first index on ties) and come back as a CnnParams. The convolution is
im2col + gemm (Chellapilla et al., 2006): each batch's windows are laid out
once as a contiguous (B*J, kernel*F) matrix, one row per window, so the
forward is one BLAS gemm with the flattened filters. The backward takes
the filter gradient from the same matrix in one of two forms, chosen by
shape alone. With J < 2 * n_filters windows it scatters each filter's
gradient into a zero (B*J, n_filters) grid at its argmax window and takes
one gemm of that grid with the matrix. With J >= 2 * n_filters, where an
example pools at most half its windows, it gathers each filter's B pooled
rows and takes one gemv per filter. BLAS sums in its own order, so scores
differ from a plain per-window contraction in the last bits only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .checkpoint import load_arrays, load_container, save_container
from .hgm import MAX_PARAM_ABS, HgmParams, embed_hours
from .seeds import derive_seed


class FeatureMode(Enum):
    """The arms: each value is the arm's name in configs, reports and file names."""

    EMBED_ONLY = "HGM"
    RAW_LABS = "CNN"
    EMBED_PLUS_LABS = "HGM_CNN"

    @property
    def needs_embedding(self) -> bool:
        return self in (FeatureMode.EMBED_ONLY, FeatureMode.EMBED_PLUS_LABS)


@dataclass
class CnnParams:
    """Classifier parameters; _batch_backward returns its gradients in the same shape."""

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
    class_weighting: bool = True

    def __post_init__(self) -> None:
        for name in ("n_filters", "kernel", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def build_features(binned, mode: FeatureMode, hgm_params: HgmParams | None = None) -> np.ndarray:
    """Assemble the (P, T, F) feature grids of a binned split.

    `binned` is the (values, observed) pair of ingest.bin_events. Rows run
    oldest to newest hour. The embedding block is hgm.embed_hours, so
    fully-missing hours inherit the previous hour's embedding plus the
    temporal translation; the lab block is the hour's lab means. RAW_LABS
    returns no copy: it is values[:, ::-1], a read-only reversed view.
    """
    if mode.needs_embedding and hgm_params is None:
        raise ValueError(f"feature mode {mode.value} requires trained embedding parameters")
    values, observed = binned
    if mode is FeatureMode.RAW_LABS:
        labs = values[:, ::-1]
        labs.flags.writeable = False
        return labs
    # a C-ordered copy: the embedding matmul reads contiguous hour vectors
    labs = np.ascontiguousarray(values[:, ::-1])
    embeddings = embed_hours(hgm_params, labs, observed[:, ::-1])
    if mode is FeatureMode.EMBED_ONLY:
        return embeddings
    return np.concatenate([embeddings, labs], axis=2)


def init_cnn(n_features: int, config: CnnTrainConfig, seed: int) -> CnnParams:
    """Seeded Glorot-uniform filters and dense weights, zero biases."""
    rng = np.random.default_rng(seed)
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
    """Forward pass over (B, T, F); returns probs plus the im2col and pooling cache."""
    n_filters, kernel, n_features = params.filters.shape
    if batch.shape[1] < kernel:
        raise ValueError(f"time dimension {batch.shape[1]} shorter than kernel {kernel}")
    if batch.shape[2] != n_features:
        raise ValueError(f"feature dimension {batch.shape[2]} does not match filters ({n_features})")
    n_batch, t_steps, _ = batch.shape
    n_windows = t_steps - kernel + 1
    # im2col: cols[b*J + j, a*F + c] = batch[b, j + a, c], one contiguous copy
    cols = np.lib.stride_tricks.sliding_window_view(batch, (kernel, n_features), axis=(1, 2))
    cols = cols.reshape(n_batch * n_windows, kernel * n_features)
    z = cols @ params.filters.reshape(n_filters, -1).T + params.conv_bias
    relu = np.maximum(z, 0.0)
    pool_idx = relu.reshape(n_batch, n_windows, n_filters).argmax(axis=1)
    # pooled[b, f] = relu[b*J + pool_idx[b, f], f], gathered at flat offsets
    pool_at = ((np.arange(n_batch)[:, None] * n_windows + pool_idx) * n_filters
               + np.arange(n_filters))
    pooled = relu.ravel().take(pool_at)
    logits = pooled @ params.dense_w + params.dense_b
    probs = _softmax_rows(logits)
    return probs, (cols, pool_at, pooled)


def _batch_backward(params: CnnParams, batch, labels, weights):
    """Summed weighted cross-entropy gradients over the batch."""
    probs, (cols, pool_at, pooled) = _batch_forward(params, batch)
    n = len(probs)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), labels] = 1.0
    d_logits = (probs - one_hot) * weights[:, None]

    d_dense_w = pooled.T @ d_logits
    d_dense_b = d_logits.sum(axis=0)
    d_pooled = d_logits @ params.dense_w.T

    # pooled = max(z, 0) at the argmax, so pooled > 0 exactly where z > 0 there
    d_z = d_pooled * (pooled > 0)
    n_filters = params.filters.shape[0]
    if len(cols) >= 2 * n_filters * n:
        # J >= 2 * n_filters: an example pools at most half its windows, so
        # gather each filter's pooled rows, (n_filters, B, kernel*F), one gemv each
        windows = cols.take(pool_at.T // n_filters, axis=0)
        d_filters = np.matmul(d_z.T[:, None, :], windows)[:, 0]
    else:
        # d_z lands on each filter's argmax window, every other window gets zero
        d_z_grid = np.zeros((len(cols), n_filters))
        d_z_grid.put(pool_at, d_z)
        d_filters = d_z_grid.T @ cols
    d_filters = d_filters.reshape(params.filters.shape)
    d_bias = d_z.sum(axis=0)
    return probs, CnnParams(d_filters, d_bias, d_dense_w, d_dense_b)


def forward(params: CnnParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities [survived, died] of one (T, F) grid; always sums to 1."""
    probs, _ = _batch_forward(params, x[None, :, :])
    return probs[0]


def predict(params: CnnParams, x: np.ndarray) -> float:
    """Mortality score of one (T, F) grid: forward probability of the death class."""
    return float(forward(params, x)[1])


def train_cnn(features: np.ndarray, config: CnnTrainConfig, labels, seed: int) -> CnnParams:
    """Seeded mini-batch SGD on (P, T, F) features and P binary labels.

    Deterministic given (features, config, labels, seed). Raises FloatingPointError
    when an epoch ends with a parameter entry that is non-finite or above
    hgm.MAX_PARAM_ABS in magnitude.
    """
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

    params = init_cnn(features.shape[2], config, seed=derive_seed(seed, "cnn-init"))
    shuffle_rng = np.random.default_rng(derive_seed(seed, "cnn-shuffle"))
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            take = order[start:start + config.batch_size]
            _, grads = _batch_backward(params, features[take], labels[take], weights[take])
            scale = config.learning_rate / take.size
            params.filters -= scale * grads.filters
            params.conv_bias -= scale * grads.conv_bias
            params.dense_w -= scale * grads.dense_w
            params.dense_b -= scale * grads.dense_b
        # np.max keeps a NaN entry, which then fails the bound
        largest = float(np.max([np.max(np.abs(p)) for p in
                                (params.filters, params.conv_bias, params.dense_w, params.dense_b)]))
        if not largest <= MAX_PARAM_ABS:
            raise FloatingPointError(
                f"cnn: a parameter non-finite or beyond {MAX_PARAM_ABS:g} after epoch "
                f"{epoch + 1}/{config.epochs}: max |parameter| {largest:.4g}")
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
    return CnnParams(**load_arrays(path, load_container(path, kind="cnn"), {
        "filters": ("filters", "kernel", "features"),
        "conv_bias": ("filters",),
        "dense_w": ("filters", 2),
        "dense_b": (2,),
    }))
