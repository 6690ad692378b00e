"""Dense float64 helpers for the loss and network modules: input
validation (and the seed check of every seeded entry point), the
symmetric inverse square root, the thin SVD and the finite-difference
oracle.

Everything here is a pure function of its inputs. Matrices are numpy
arrays with rows as samples and columns as dimensions; every function
validates its input and returns finite float64 results. Centering and
the covariances live inside `cca`, on views validated once there.
"""

import numbers

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError

# Stabilizers: the ridge is every loss caller's `reg`; the eigenvalue
# floor is fixed, and cannot bind while reg >= DEFAULT_CLAMP.
DEFAULT_REG = 1e-4
DEFAULT_CLAMP = 1e-8

SYMMETRY_TOL = 1e-8


def as_matrix(X, name="matrix"):
    """Coerce input to a 2-D float64 array, rejecting non-finite entries."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise NumericError(f"{name} contains non-finite entries")
    return A


def check_seed(seed):
    """The seed as an int; anything but an integer >= 0 is a
    ConfigurationError rather than numpy's ValueError or TypeError."""
    if not isinstance(seed, numbers.Integral):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return int(seed)


def inv_sqrt_sym(S):
    """Inverse matrix square root of a symmetric matrix.

    Eigenvalues are floored at DEFAULT_CLAMP before inversion, so
    rank-deficient inputs are handled without error. The result is
    exactly symmetric.
    """
    A = as_matrix(S, "S")
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected square matrix, got {A.shape}")
    scale = max(np.abs(A).max(), 1.0)
    if np.abs(A - A.T).max() > SYMMETRY_TOL * scale:
        raise DimensionError("matrix is not symmetric within tolerance")
    lam, Q = np.linalg.eigh(A)
    lam = np.maximum(lam, DEFAULT_CLAMP)
    R = (Q / np.sqrt(lam)) @ Q.T
    return (R + R.T) / 2.0


def thin_svd(A):
    """Thin SVD: A = U @ diag(sigma) @ V.T with sigma non-increasing."""
    M = as_matrix(A, "A")
    U, sigma, Vt = np.linalg.svd(M, full_matrices=False)
    return U, sigma, Vt.T


def fd_gradient(f, X, h=1e-5):
    """Central-difference gradient of a scalar function of a matrix.

    Slow entrywise oracle used to verify analytic gradients; never on
    a hot path.
    """
    A = as_matrix(X, "X")
    if h <= 0:
        raise NumericError(f"step h must be positive, got {h}")
    G = np.empty_like(A)
    P = A.copy()
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            orig = P[i, j]
            P[i, j] = orig + h
            f_plus = float(f(P))
            P[i, j] = orig - h
            f_minus = float(f(P))
            P[i, j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                err = NumericError(
                    f"non-finite function value at entry ({i}, {j})"
                )
                err.entry = (i, j)
                raise err
            G[i, j] = (f_plus - f_minus) / (2.0 * h)
    return G
