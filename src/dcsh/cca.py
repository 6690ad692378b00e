"""Correlation loss between two data views, its analytic gradient,
and the rank arithmetic that fixes k, the balance factor, and the
combined loss lower bound.

The loss between views X (M x d_x) and Y (M x d_y) is the negative sum
of the k largest singular values of

    K = Sigma_XX^{-1/2} @ Sigma_XY @ Sigma_YY^{-1/2}

computed on column-centered views; a ridge reg is added to Sigma_XX
and Sigma_YY, not to Sigma_XY.
Each singular value is a canonical correlation in [0, 1], so the loss
lives in [-k, 0]. The gradient is taken with respect to X only; the
target view is constant within a batch.
"""

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError
from .numerics import DEFAULT_REG, as_matrix, inv_sqrt_sym, thin_svd

# The two formulas for the balance factor; `alpha` resolves either.
ALPHA_MODES = ("equalized", "emphasized")


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


def cca_loss(X, Y, k, reg=DEFAULT_REG):
    """One correlation term: (loss, top-k correlations, d(loss)/dX).

    X (M x d_x) is the trainable view and Y (M x d_y) the target; the
    batch M must exceed both widths, and k lies in [1, k_max].
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
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
    limit = k_max(X.shape[1], Y.shape[1], M)
    if not 1 <= k <= limit:
        raise ConfigurationError(f"k={k} outside valid range [1, {limit}]")
    return _cca(X, Y, k, reg)


def _cca(X, Y, k, reg):
    """cca_loss on views its caller has validated.

    The gradient takes the chain rule through K's SVD; directions
    beyond the top k are excluded, which matches the loss exactly and
    stays well defined under ties because a tied block's sum is
    rotation invariant.
    """
    if not reg >= 0:
        raise NumericError(f"reg must be non-negative, got {reg}")
    M = X.shape[0]
    Xc = X - X.mean(axis=0, keepdims=True)
    Yc = Y - Y.mean(axis=0, keepdims=True)
    Sxx = Xc.T @ Xc / (M - 1)
    Syy = Yc.T @ Yc / (M - 1)
    if reg > 0:
        Sxx = Sxx + reg * np.eye(X.shape[1])
        Syy = Syy + reg * np.eye(Y.shape[1])
    Sxx_isqrt = inv_sqrt_sym(Sxx)
    Syy_isqrt = inv_sqrt_sym(Syy)
    K = Sxx_isqrt @ (Xc.T @ Yc / (M - 1)) @ Syy_isqrt
    U, sigma, V = thin_svd(K)
    Uk = U[:, :k]
    Vk = V[:, :k]
    top = sigma[:k]
    # Gradients of the correlation sum w.r.t. Sigma_XY and Sigma_XX.
    d12 = Sxx_isqrt @ Uk @ Vk.T @ Syy_isqrt
    d11 = -0.5 * Sxx_isqrt @ (Uk * top) @ Uk.T @ Sxx_isqrt
    corr_grad = (2.0 * Xc @ d11 + Yc @ d12.T) / (M - 1)
    return -float(top.sum()), top, -corr_grad


def alpha(B, C, setting):
    """Balance factor for the classification term.

    `setting` is a mode or the factor itself. equalized matches the two
    terms' bounds; emphasized scales the classification bound up to the
    code length's -(B-1); a number is returned unchanged.
    """
    if B < 2 or C < 2:
        raise ConfigurationError(f"need B >= 2 and C >= 2, got B={B}, C={C}")
    if setting == "equalized":
        return (min(B, C) - 1) / (C - 1)
    if setting == "emphasized":
        return (B - 1) / (C - 1)
    if isinstance(setting, str):
        raise ConfigurationError(f"unknown alpha mode: {setting!r}")
    return setting


def dcsh_lower_bound(B, C):
    """Lower bound of the combined loss under the emphasized alpha."""
    if B < 2 or C < 2:
        raise ConfigurationError(f"need B >= 2 and C >= 2, got B={B}, C={C}")
    return -(min(B, C) - 1) - (B - 1)


def dcsh_loss(X_h, Y_h, X_c, Y_c, alpha_value, reg=DEFAULT_REG):
    """Combined loss: hashing correlation plus alpha times the
    classification correlation.

    X_h, Y_h are M x B hash outputs and target codewords; X_c, Y_c are
    M x C classification scores and multi-hot labels. Each term takes k
    at its rank bound: min(B, C) - 1 for the hash term, since the
    target rows come from at most C distinct centers, and C - 1 for the
    classification term.

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
    hash_loss, _, grad_Xh = _cca(X_h, Y_h, k_max(B, C, M), reg)
    class_loss, _, grad_Xc = _cca(X_c, Y_c, k_max(C, C, M), reg)
    loss = hash_loss + alpha_value * class_loss
    return loss, grad_Xh, alpha_value * grad_Xc
