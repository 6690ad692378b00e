import numpy as np
import pytest

from dcsh.errors import DimensionError, NumericError
from dcsh.numerics import fd_gradient, inv_sqrt_sym, thin_svd


class TestInvSqrtSym:
    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt_sym(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        out = inv_sqrt_sym(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_clamp_floors_tiny_eigenvalues(self):
        out = inv_sqrt_sym(np.diag([4.0, 1e-12]))
        np.testing.assert_allclose(out, np.diag([0.5, 1e4]), rtol=1e-10)

    def test_inverse_square_root_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 8)
            A = rng.standard_normal((n, n))
            S = A @ A.T + 0.5 * np.eye(n)
            R = inv_sqrt_sym(S)
            np.testing.assert_allclose(R @ S @ R, np.eye(n), atol=1e-6)
            np.testing.assert_allclose(R, R.T, atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(DimensionError):
            inv_sqrt_sym([[1.0, 0.5], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            inv_sqrt_sym(np.zeros((2, 3)))


class TestThinSvd:
    def test_identity(self):
        _, sigma, _ = thin_svd(np.eye(3))
        np.testing.assert_allclose(sigma, [1, 1, 1])

    def test_negative_diagonal(self):
        _, sigma, _ = thin_svd(np.diag([3.0, -2.0]))
        np.testing.assert_allclose(sigma, [3.0, 2.0])

    def test_permuted_diagonal(self):
        _, sigma, _ = thin_svd([[0.0, 2.0], [1.0, 0.0]])
        np.testing.assert_allclose(sigma, [2.0, 1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
            U, sigma, V = thin_svd(A)
            rebuilt = U @ np.diag(sigma) @ V.T
            denom = max(np.linalg.norm(A), 1e-300)
            assert np.linalg.norm(rebuilt - A) / denom < 1e-8
            np.testing.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-8)
            np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-8)
            assert (np.diff(sigma) <= 1e-12).all()
            assert (sigma >= 0).all()


class TestFdGradient:
    def test_sum_of_entries(self):
        G = fd_gradient(lambda A: A.sum(), np.zeros((3, 2)), 1e-5)
        np.testing.assert_allclose(G, np.ones((3, 2)), atol=1e-9)

    def test_sum_of_squares(self):
        G = fd_gradient(lambda A: (A ** 2).sum(), np.array([[1.0, 2.0]]), 1e-5)
        np.testing.assert_allclose(G, [[2.0, 4.0]], atol=1e-8)

    def test_non_finite_names_entry(self):
        X = np.ones((2, 2))
        X[1, 0] = 0.0

        def f(A):
            # finite until the (1, 0) entry is pushed negative
            return np.nan if A[1, 0] < 0 else A.sum()

        with pytest.raises(NumericError) as err:
            fd_gradient(f, X, 1e-5)
        assert err.value.entry == (1, 0)
