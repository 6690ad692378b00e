"""Correlation loss between two data views, its analytic gradient,
and the rank arithmetic that fixes k, the balance factor, and the
combined loss lower bound.

The loss between views X (M x d_x) and Y (M x d_y) is the negative sum
of the k largest singular values of

    K = Sigma_XX^{-1/2} @ Sigma_XY @ Sigma_YY^{-1/2}

computed on column-centered views with regularized autocovariances.
Each singular value is a canonical correlation in [0, 1], so the loss
lives in [-k, 0]. The gradient is taken with respect to X only; the
target view is constant within a batch.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError
from .numerics import (
    DEFAULT_CLAMP,
    DEFAULT_REG,
    as_matrix,
    autocovariance,
    center_columns,
    covariance,
    inv_sqrt_sym,
    thin_svd,
)


@dataclass(frozen=True)
class CcaViews:
    """A pair of same-batch views. X is trainable, Y is the target."""

    X: np.ndarray
    Y: np.ndarray
    reg: float = DEFAULT_REG

    def __post_init__(self):
        X = as_matrix(self.X, "X")
        Y = as_matrix(self.Y, "Y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if X.shape[0] != Y.shape[0]:
            raise DimensionError(
                f"views disagree on batch size: {X.shape[0]} vs {Y.shape[0]}"
            )
        M = X.shape[0]
        if M <= X.shape[1] or M <= Y.shape[1]:
            raise ConfigurationError(
                f"batch of {M} must exceed both view dimensions "
                f"({X.shape[1]} and {Y.shape[1]})"
            )

    @property
    def M(self):
        return self.X.shape[0]


@dataclass
class DccfResult:
    """Loss value plus the factors needed to evaluate the gradient."""

    loss: float
    correlations: np.ndarray
    cache: dict = field(repr=False, default=None)


def k_max(d_x, d_y, M):
    """Largest usable correlation count for view widths d_x, d_y at batch M.

    Mean subtraction costs one rank, hence the trailing -1.
    """
    if M < 2:
        raise ConfigurationError(f"batch size must be at least 2, got {M}")
    k = min(min(d_x, M), min(d_y, M)) - 1
    if k < 1:
        raise ConfigurationError(
            f"views too small for CCA: d_x={d_x}, d_y={d_y}, M={M}"
        )
    return k


def dccf_loss(views, k, clamp=DEFAULT_CLAMP):
    """Negative sum of the top-k canonical correlations of the views."""
    limit = k_max(views.X.shape[1], views.Y.shape[1], views.M)
    if not 1 <= k <= limit:
        raise ConfigurationError(f"k={k} outside valid range [1, {limit}]")
    Xc = center_columns(views.X)
    Yc = center_columns(views.Y)
    Sxx_isqrt = inv_sqrt_sym(autocovariance(Xc, views.reg), clamp)
    Syy_isqrt = inv_sqrt_sym(autocovariance(Yc, views.reg), clamp)
    K = Sxx_isqrt @ covariance(Xc, Yc) @ Syy_isqrt
    U, sigma, V = thin_svd(K)
    top = sigma[:k]
    cache = {
        "Xc": Xc,
        "Yc": Yc,
        "Sxx_isqrt": Sxx_isqrt,
        "Syy_isqrt": Syy_isqrt,
        "U": U,
        "V": V,
        "sigma": sigma,
        "k": k,
        "M": views.M,
    }
    return DccfResult(loss=-float(top.sum()), correlations=top, cache=cache)


def dccf_grad(result):
    """d(loss)/dX from a DccfResult's cache, shape M x d_x.

    Chain rule through K's SVD; directions beyond the top k are
    excluded, which matches the loss exactly and stays well defined
    under ties because a tied block's sum is rotation invariant.
    """
    c = result.cache
    if c is None:
        raise ConfigurationError("result carries no gradient cache")
    k = c["k"]
    Uk = c["U"][:, :k]
    Vk = c["V"][:, :k]
    Sk = c["sigma"][:k]
    Sxx_isqrt = c["Sxx_isqrt"]
    # Gradients of the correlation sum w.r.t. Sigma_XY and Sigma_XX.
    d12 = Sxx_isqrt @ Uk @ Vk.T @ c["Syy_isqrt"]
    d11 = -0.5 * Sxx_isqrt @ (Uk * Sk) @ Uk.T @ Sxx_isqrt
    corr_grad = (2.0 * c["Xc"] @ d11 + c["Yc"] @ d12.T) / (c["M"] - 1)
    return -corr_grad


def alpha(B, C, mode):
    """Balance factor for the classification term.

    equalized matches the two terms' bounds; emphasized scales the
    classification bound up to the code length's -(B-1).
    """
    if B < 2 or C < 2:
        raise ConfigurationError(f"need B >= 2 and C >= 2, got B={B}, C={C}")
    if mode == "equalized":
        return (min(B, C) - 1) / (C - 1)
    if mode == "emphasized":
        return (B - 1) / (C - 1)
    raise ConfigurationError(f"unknown alpha mode: {mode!r}")


def dcsh_lower_bound(B, C):
    """Lower bound of the combined loss under the emphasized alpha."""
    if B < 2 or C < 2:
        raise ConfigurationError(f"need B >= 2 and C >= 2, got B={B}, C={C}")
    return -(min(B, C) - 1) - (B - 1)


def dcsh_loss(X_h, Y_h, X_c, Y_c, alpha_value, reg=DEFAULT_REG,
              clamp=DEFAULT_CLAMP, k_hash=None, k_class=None):
    """Combined loss: hashing correlation plus alpha times the
    classification correlation.

    X_h, Y_h are M x B hash outputs and target codewords; X_c, Y_c are
    M x C classification scores and multi-hot labels. k for each term
    defaults to its rank bound: min(B, C) - 1 for the hash term, since
    the target rows come from at most C distinct centers, and C - 1 for
    the classification term.

    Returns (loss, grad_Xh, grad_Xc) with the alpha scaling already
    applied to grad_Xc.
    """
    X_h = as_matrix(X_h, "X_h")
    Y_h = as_matrix(Y_h, "Y_h")
    X_c = as_matrix(X_c, "X_c")
    Y_c = as_matrix(Y_c, "Y_c")
    if X_h.shape != Y_h.shape:
        raise DimensionError(
            f"hash views disagree: {X_h.shape} vs {Y_h.shape}"
        )
    if X_c.shape != Y_c.shape:
        raise DimensionError(
            f"classification views disagree: {X_c.shape} vs {Y_c.shape}"
        )
    M, B = X_h.shape
    C = X_c.shape[1]
    if M <= B:
        raise ConfigurationError(f"batch too small: M={M} must exceed B={B}")
    if M <= C:
        raise ConfigurationError(f"batch too small: M={M} must exceed C={C}")
    if k_hash is None:
        k_hash = k_max(B, C, M)
    if k_class is None:
        k_class = k_max(C, C, M)
    hash_term = dccf_loss(CcaViews(X_h, Y_h, reg), k_hash, clamp)
    class_term = dccf_loss(CcaViews(X_c, Y_c, reg), k_class, clamp)
    loss = hash_term.loss + alpha_value * class_term.loss
    grad_Xh = dccf_grad(hash_term)
    grad_Xc = alpha_value * dccf_grad(class_term)
    return loss, grad_Xh, grad_Xc
