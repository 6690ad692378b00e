"""The trainable model and its loop: a feed-forward extractor, a
sigmoid hashing layer, a ReLU intermediate layer, and a sigmoid
classification layer, trained with plain SGD on the combined
correlation loss while the hash centers are re-estimated every epoch.

Everything is float64 and seeded; two runs from the same configuration
produce byte-identical artifacts.
"""

from dataclasses import dataclass

import numpy as np

from .cca import CcaViews, alpha, dccf_grad, dccf_loss, dcsh_loss, k_max
from .centers import LabelSet, assign_target, update_centers
from .data import multi_hot
from .errors import (
    ConfigurationError,
    CoverageError,
    DimensionError,
    NumericError,
    StaleCacheError,
)
from .numerics import DEFAULT_CLAMP, DEFAULT_REG, as_matrix, fd_gradient

DEFAULT_HIDDEN = (256, 256)
# Largest row block `predict` sends through `forward` at once.
PREDICT_ROWS = 4096


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class DcshModel:
    """Affine layers with a fixed activation pattern.

    layers[:n_extractor] are ReLU extractor stages, then come the
    sigmoid hashing layer, the ReLU intermediate layer, and the sigmoid
    classification layer. `version` counts parameter updates so stale
    forward caches are detected.
    """

    def __init__(self, layers, n_extractor):
        if len(layers) != n_extractor + 3:
            raise ConfigurationError(
                f"{len(layers)} layers cannot split into {n_extractor} "
                "extractor stages plus hashing/intermediate/classification"
            )
        self.layers = [
            (np.array(W, dtype=np.float64), np.array(b, dtype=np.float64))
            for W, b in layers
        ]
        for idx, (W, b) in enumerate(self.layers):
            if W.ndim != 2 or b.ndim != 1 or b.shape[0] != W.shape[1]:
                raise DimensionError(f"layer {idx} shapes inconsistent")
        for idx in range(len(self.layers) - 1):
            if self.layers[idx][0].shape[1] != self.layers[idx + 1][0].shape[0]:
                raise DimensionError(
                    f"layer {idx} output does not feed layer {idx + 1}"
                )
        self.n_extractor = n_extractor
        if self.D_int <= self.C:
            raise ConfigurationError(
                f"intermediate width {self.D_int} must exceed C={self.C}"
            )
        self.version = 0

    @property
    def hash_index(self):
        return self.n_extractor

    @property
    def D(self):
        return self.layers[0][0].shape[0]

    @property
    def B(self):
        return self.layers[self.hash_index][0].shape[1]

    @property
    def D_int(self):
        return self.layers[self.hash_index + 1][0].shape[1]

    @property
    def C(self):
        return self.layers[-1][0].shape[1]

    def _is_sigmoid(self, idx):
        return idx == self.hash_index or idx == len(self.layers) - 1


def build_model(D, C, bits, hidden=DEFAULT_HIDDEN, d_int=None, seed=0):
    """Seeded Glorot-uniform model; biases start at zero."""
    if d_int is None:
        d_int = max(4 * C, 128)
    if d_int <= C:
        raise ConfigurationError(
            f"intermediate width {d_int} must exceed C={C}"
        )
    dims = [D, *hidden, bits, d_int, C]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append((W, np.zeros(fan_out)))
    return DcshModel(layers, n_extractor=len(hidden))


@dataclass
class ForwardCache:
    """Activations retained for backward: the batch, then each layer's
    output, so layer idx maps activations[idx] to activations[idx + 1]."""

    activations: list
    version: int


def forward(model, batch):
    """Run the layer chain; returns (x_h, x_c, cache)."""
    X = as_matrix(batch, "batch")
    if X.shape[1] != model.D:
        raise DimensionError(
            f"batch has {X.shape[1]} columns, model expects {model.D}"
        )
    acts = [X]
    for idx, (W, b) in enumerate(model.layers):
        z = acts[-1] @ W + b
        acts.append(_sigmoid(z) if model._is_sigmoid(idx) else np.maximum(z, 0.0))
    cache = ForwardCache(activations=acts, version=model.version)
    return acts[model.hash_index + 1], acts[-1], cache


def predict(model, X):
    """(x_h, x_c) for every row of X, keeping no backward cache.

    Rows go through `forward` in near-equal blocks of at most
    PREDICT_ROWS, so memory is bounded by one block's activations.
    Near-equal blocks matched one `forward` call byte for byte in tests;
    a short tail block can take another BLAS path and move the last bits.
    """
    X = np.asarray(X)
    N = X.shape[0]
    x_h = np.empty((N, model.B))
    x_c = np.empty((N, model.C))
    start = 0
    for block in np.array_split(X, max(1, -(-N // PREDICT_ROWS))):
        stop = start + block.shape[0]
        x_h[start:stop], x_c[start:stop], _ = forward(model, block)
        start = stop
    return x_h, x_c


def backward(model, cache, grad_xh, grad_xc):
    """Parameter gradients for an upstream (grad_xh, grad_xc) pair.

    The hashing layer's output receives grad_xh directly plus the path
    back through the intermediate and classification layers.
    """
    if cache.version != model.version:
        raise StaleCacheError(
            f"cache from version {cache.version}, model at {model.version}"
        )
    grad_xh = np.asarray(grad_xh, dtype=np.float64)
    grad_xc = np.asarray(grad_xc, dtype=np.float64)
    acts = cache.activations
    if grad_xh.shape != acts[model.hash_index + 1].shape:
        raise DimensionError(f"grad_xh shape {grad_xh.shape} mismatched")
    if grad_xc.shape != acts[-1].shape:
        raise DimensionError(f"grad_xc shape {grad_xc.shape} mismatched")
    grads = [None] * len(model.layers)
    d = grad_xc
    for idx in range(len(model.layers) - 1, -1, -1):
        out = acts[idx + 1]
        if idx == model.hash_index:
            d = d + grad_xh
        if model._is_sigmoid(idx):
            dz = d * out * (1.0 - out)
        else:
            dz = d * (out > 0.0)
        W = model.layers[idx][0]
        grads[idx] = (acts[idx].T @ dz, dz.sum(axis=0))
        if idx:
            d = dz @ W.T
    return grads


def sgd_step(model, grads, lr, momentum=0.0, velocity=None):
    """In-place p <- p - lr * g, with optional heavy-ball momentum.

    Returns the updated velocity state (None while momentum is 0).
    """
    if lr < 0:
        raise ConfigurationError(f"learning rate must be >= 0, got {lr}")
    if len(grads) != len(model.layers):
        raise DimensionError("gradient list does not match layer list")
    for idx, (dW, db) in enumerate(grads):
        if not (np.all(np.isfinite(dW)) and np.all(np.isfinite(db))):
            raise NumericError(f"non-finite gradient in layer {idx}")
    if momentum > 0.0:
        if velocity is None:
            velocity = [
                (np.zeros_like(W), np.zeros_like(b)) for W, b in model.layers
            ]
        for (W, b), (vW, vb), (dW, db) in zip(model.layers, velocity, grads):
            vW *= momentum
            vW += dW
            vb *= momentum
            vb += db
            W -= lr * vW
            b -= lr * vb
    else:
        velocity = None
        for (W, b), (dW, db) in zip(model.layers, grads):
            W -= lr * dW
            b -= lr * db
    model.version += 1
    return velocity


def binarize(x_h):
    """Threshold at 0.5; exactly 0.5 maps to bit 1."""
    return (np.asarray(x_h, dtype=np.float64) >= 0.5).astype(np.uint8)


def learning_rate(lr_initial, decay, every, epoch):
    """Step schedule: multiply by `decay` every `every` epochs."""
    if every < 1:
        raise ConfigurationError(f"decay interval must be >= 1, got {every}")
    return lr_initial * decay ** (epoch // every)


@dataclass(frozen=True)
class TrainConfig:
    bits: int
    epochs: int
    batch_size: int = 200
    lr: float = 3e-4
    lr_decay: float = 0.7
    decay_every: int = 10
    alpha_mode: str = "emphasized"
    alpha_override: float = None
    reg: float = DEFAULT_REG
    clamp: float = DEFAULT_CLAMP
    momentum: float = 0.0
    seed: int = 0
    hidden: tuple = DEFAULT_HIDDEN
    d_int: int = None

    def __post_init__(self):
        if self.bits < 2:
            raise ConfigurationError(f"need at least 2 bits, got {self.bits}")
        if self.epochs < 1:
            raise ConfigurationError(f"need at least 1 epoch, got {self.epochs}")
        if self.batch_size <= self.bits:
            raise ConfigurationError(
                f"batch of {self.batch_size} must exceed B={self.bits}"
            )
        if self.lr <= 0:
            raise ConfigurationError(f"learning rate must be > 0, got {self.lr}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigurationError(
                f"decay factor must lie in (0, 1], got {self.lr_decay}"
            )
        if self.decay_every < 1:
            raise ConfigurationError(
                f"decay interval must be >= 1, got {self.decay_every}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(
                f"momentum must lie in [0, 1), got {self.momentum}"
            )
        if self.alpha_mode not in ("equalized", "emphasized"):
            raise ConfigurationError(
                f"unknown alpha mode {self.alpha_mode!r}"
            )
        if self.alpha_override is not None and self.alpha_override < 0:
            raise ConfigurationError(
                f"alpha override must be >= 0, got {self.alpha_override}"
            )


def train(model, config, dataset, centers0):
    """Full training loop.

    Targets depend only on a sample's label set and the centers, which
    change once per epoch, so each epoch builds them once: one
    `assign_target` call per distinct label set of the train and query
    rows, gathered by row for every batch and for the test loss. Per
    epoch: seeded shuffle, full batches only, loss/backward/SGD, then a
    cache-free `predict` over the whole training split feeds the center
    update. The query split, when large enough, provides a test loss
    computed just before that update. Returns (model, center history,
    curves) where curves rows are (epoch, train_loss, test_loss or None).
    """
    B, C = config.bits, dataset.C
    if model.B != B:
        raise ConfigurationError(
            f"model emits {model.B} bits, config says {B}"
        )
    if model.C != C or model.D != dataset.D:
        raise DimensionError(
            f"model ({model.D} -> {model.C}) does not fit dataset "
            f"({dataset.D} -> {dataset.C})"
        )
    if centers0.B != B or centers0.C != C:
        raise DimensionError(
            f"centers are {centers0.C} x {centers0.B}, need {C} x {B}"
        )
    M = config.batch_size
    if M <= C:
        raise ConfigurationError(f"batch of {M} must exceed C={C}")
    train_idx = dataset.train_indices
    if train_idx.shape[0] < M:
        raise ConfigurationError(
            f"training split of {train_idx.shape[0]} is smaller than one "
            f"batch of {M}"
        )
    query_idx = dataset.query_indices
    has_test = query_idx.shape[0] > max(B, C)
    n_train = train_idx.shape[0]
    rows = np.concatenate([train_idx, query_idx]) if has_test else train_idx
    labels = [dataset.labels[int(i)] for i in rows]
    Y_c_all = multi_hot(labels, C)
    missing = np.flatnonzero(~Y_c_all[:n_train].any(axis=0))
    if missing.size:
        raise CoverageError(f"class {missing[0]} has no training samples")
    distinct, row_set = np.unique(Y_c_all, axis=0, return_inverse=True)
    row_set = row_set.ravel()
    label_sets = [LabelSet(np.flatnonzero(y)) for y in distinct]
    X_train = dataset.features[train_idx]
    if has_test:
        X_test = dataset.features[query_idx]
    if config.alpha_override is not None:
        alpha_value = config.alpha_override
    else:
        alpha_value = alpha(B, C, config.alpha_mode)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence([int(config.seed), 1])
    )
    n_batches = n_train // M
    centers = centers0
    history = [centers0]
    curves = []
    velocity = None
    for epoch in range(config.epochs):
        lr = learning_rate(config.lr, config.lr_decay, config.decay_every, epoch)
        targets = np.array(
            [assign_target(ls, centers, config.seed) for ls in label_sets],
            dtype=np.float64,
        )
        perm = shuffle_rng.permutation(n_train)
        batch_losses = []
        for bi in range(n_batches):
            sel = perm[bi * M:(bi + 1) * M]
            x_h, x_c, cache = forward(model, X_train[sel])
            loss, g_xh, g_xc = dcsh_loss(
                x_h, targets[row_set[sel]], x_c, Y_c_all[sel], alpha_value,
                config.reg, config.clamp,
            )
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {bi}"
                )
            grads = backward(model, cache, g_xh, g_xc)
            try:
                velocity = sgd_step(model, grads, lr, config.momentum, velocity)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {bi}: {exc}") from None
            batch_losses.append(loss)
        train_loss = float(np.mean(batch_losses))
        test_loss = None
        if has_test:
            x_h_t, x_c_t = predict(model, X_test)
            test_loss, _, _ = dcsh_loss(
                x_h_t, targets[row_set[n_train:]], x_c_t, Y_c_all[n_train:],
                alpha_value, config.reg, config.clamp,
            )
        x_h_full, _ = predict(model, X_train)
        centers = update_centers(
            x_h_full, labels[:n_train], C, epoch=epoch + 1
        )
        history.append(centers)
        curves.append((epoch, train_loss, test_loss))
    return model, history, curves


def finite_difference_report(seed=1, h=1e-5):
    """Max relative error of every analytic gradient against central
    differences. Returns (name, error) rows; all should sit well below
    1e-3.
    """
    rng = np.random.default_rng(seed)
    rows = []

    def rel_err(analytic, numeric):
        scale = max(np.abs(numeric).max(), 1e-12)
        return float(np.abs(analytic - numeric).max() / scale)

    X = rng.standard_normal((12, 3))
    Y = rng.standard_normal((12, 3))
    k = k_max(3, 3, 12)
    res = dccf_loss(CcaViews(X, Y), k)
    fd = fd_gradient(lambda A: dccf_loss(CcaViews(A, Y), k).loss, X, h)
    rows.append(("dccf_grad 12x3", rel_err(dccf_grad(res), fd)))

    X_h = rng.standard_normal((20, 4))
    Y_h = rng.standard_normal((20, 4))
    X_c = rng.standard_normal((20, 3))
    Y_c = rng.standard_normal((20, 3))
    _, g_xh, g_xc = dcsh_loss(X_h, Y_h, X_c, Y_c, 1.5)
    fd_h = fd_gradient(
        lambda A: dcsh_loss(A, Y_h, X_c, Y_c, 1.5)[0], X_h, h
    )
    fd_c = fd_gradient(
        lambda A: dcsh_loss(X_h, Y_h, A, Y_c, 1.5)[0], X_c, h
    )
    rows.append(("dcsh_loss grad_Xh 20x4", rel_err(g_xh, fd_h)))
    rows.append(("dcsh_loss grad_Xc 20x3", rel_err(g_xc, fd_c)))

    model = build_model(D=6, C=3, bits=4, hidden=(8,), d_int=12, seed=seed)
    Xb = rng.standard_normal((24, 6))
    Y_hb = rng.integers(0, 2, size=(24, 4)).astype(np.float64)
    Y_cb = np.zeros((24, 3))
    Y_cb[np.arange(24), rng.integers(0, 3, size=24)] = 1.0

    def end_to_end():
        x_h, x_c, cache = forward(model, Xb)
        loss, g_xh, g_xc = dcsh_loss(x_h, Y_hb, x_c, Y_cb, 1.5)
        return loss, backward(model, cache, g_xh, g_xc)

    _, grads = end_to_end()
    for idx in range(len(model.layers)):
        W, b = model.layers[idx]

        def loss_for_W(Wp, idx=idx, W=W, b=b):
            model.layers[idx] = (Wp.copy(), b)
            model.version += 1
            x_h, x_c, _ = forward(model, Xb)
            value = dcsh_loss(x_h, Y_hb, x_c, Y_cb, 1.5)[0]
            model.layers[idx] = (W, b)
            model.version += 1
            return value

        def loss_for_b(bp, idx=idx, W=W, b=b):
            model.layers[idx] = (W, bp.ravel().copy())
            model.version += 1
            x_h, x_c, _ = forward(model, Xb)
            value = dcsh_loss(x_h, Y_hb, x_c, Y_cb, 1.5)[0]
            model.layers[idx] = (W, b)
            model.version += 1
            return value

        fd_W = fd_gradient(loss_for_W, W, h)
        fd_b = fd_gradient(loss_for_b, b[None, :], h)[0]
        rows.append((f"backward layer {idx} weights", rel_err(grads[idx][0], fd_W)))
        rows.append((f"backward layer {idx} biases", rel_err(grads[idx][1], fd_b)))
    return rows
