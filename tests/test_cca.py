import numpy as np
import pytest

from dcsh.cca import alpha, cca_loss, dcsh_loss, dcsh_lower_bound, k_max
from dcsh.centers import gen_bernoulli_centers, gen_hadamard_centers
from dcsh.errors import ConfigurationError, DimensionError, NumericError
from dcsh.numerics import fd_gradient


def eigen_cca_correlations(X, Y, reg):
    """Independent oracle: canonical correlations via the eigenvalues of
    Sxx^-1 Sxy Syy^-1 Syx, no SVD of K involved."""
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    M = X.shape[0]
    Sxx = Xc.T @ Xc / (M - 1) + reg * np.eye(X.shape[1])
    Syy = Yc.T @ Yc / (M - 1) + reg * np.eye(Y.shape[1])
    Sxy = Xc.T @ Yc / (M - 1)
    T = np.linalg.solve(Sxx, Sxy) @ np.linalg.solve(Syy, Sxy.T)
    lam = np.sort(np.linalg.eigvals(T).real)[::-1]
    return np.sqrt(np.maximum(lam, 0.0))


class TestKMax:
    def test_wide_hash_view(self):
        assert k_max(32, 10, 200) == 9

    def test_square_class_view(self):
        assert k_max(10, 10, 200) == 9

    def test_tiny(self):
        assert k_max(2, 2, 10) == 1

    def test_batch_limits_rank(self):
        assert k_max(64, 64, 16) == 15

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            k_max(1, 5, 10)


# TestDccfLoss and TestDccfGrad test one correlation term (the DCCA loss
# of Andrew et al., 2013) through `cca_loss`.
class TestDccfLoss:
    def test_identical_views_reach_minus_k(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 3))
        loss, _, _ = cca_loss(X, X, 2, reg=0.0)
        assert abs(loss - (-2.0)) < 1e-6

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 3))
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal(3)
        base = cca_loss(X, X, 2, reg=0.0)[0]
        moved = cca_loss(X, X @ A + b, 2, reg=0.0)[0]
        assert abs(base - moved) < 1e-5

    def test_affine_invariance_at_small_reg(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((60, 4))
            Y = rng.standard_normal((60, 3))
            A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
            b = rng.standard_normal(4)
            base = cca_loss(X, Y, 2, reg=1e-6)[0]
            moved = cca_loss(X @ A + b, Y, 2, reg=1e-6)[0]
            assert abs(base - moved) < 1e-4

    def test_independent_views_match_eigen_oracle(self):
        losses = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((2000, 4))
            Y = rng.standard_normal((2000, 4))
            loss, _, _ = cca_loss(X, Y, 3)
            oracle = -eigen_cca_correlations(X, Y, 1e-4)[:3].sum()
            assert abs(loss - oracle) < 1e-8
            losses.append(loss)
        assert -0.35 < min(losses) and max(losses) < 0.0

    def test_symmetry_in_views(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((40, 4))
            Y = rng.standard_normal((40, 3))
            a = cca_loss(X, Y, 2)[0]
            b = cca_loss(Y, X, 2)[0]
            assert abs(a - b) < 1e-8

    def test_bounds_and_correlation_range(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            M = int(rng.integers(10, 60))
            d_x = int(rng.integers(2, min(M, 7)))
            d_y = int(rng.integers(2, min(M, 7)))
            X = rng.standard_normal((M, d_x)) * rng.uniform(0.1, 10)
            Y = rng.standard_normal((M, d_y))
            if rng.random() < 0.3 and d_y <= d_x:
                Y = X[:, :d_y] + 0.01 * rng.standard_normal((M, d_y))
            k = k_max(d_x, d_y, M)
            loss, corr, _ = cca_loss(X, Y, k)
            assert corr.shape == (k,)
            assert (corr >= 0).all()
            assert (corr <= 1 + 1e-6).all()
            assert -k <= loss <= 1e-6

    def test_k_above_limit_rejected(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 3))
        with pytest.raises(ConfigurationError):
            cca_loss(X, X, 3)

    def test_batch_not_exceeding_width_rejected(self):
        with pytest.raises(ConfigurationError):
            cca_loss(np.zeros((4, 4)), np.zeros((4, 2)), 1)


class TestDccfGrad:
    def test_matches_finite_differences(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((12, 3))
            Y = rng.standard_normal((12, 3))
            k = 2
            _, _, grad = cca_loss(X, Y, k)
            fd = fd_gradient(
                lambda A: cca_loss(A, Y, k)[0], X, 1e-5
            )
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(grad - fd).max() / scale < 1e-4

    def test_stationary_at_identical_views(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 3))
        _, _, grad = cca_loss(X, X, 2, reg=0.0)
        assert np.abs(grad).max() < 1e-6

    def test_direction_invariant_under_scaling(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 4))
        Y = rng.standard_normal((30, 4))
        g1 = cca_loss(X, Y, 3, reg=0.0)[2]
        g2 = cca_loss(2.0 * X, Y, 3, reg=0.0)[2]
        for r1, r2 in zip(g1, g2):
            n1, n2 = np.linalg.norm(r1), np.linalg.norm(r2)
            if n1 < 1e-12 or n2 < 1e-12:
                continue
            cos = abs(r1 @ r2) / (n1 * n2)
            assert cos > 1 - 1e-6


class TestCcaLossChecks:
    def test_non_finite_rejected(self):
        X = np.random.default_rng(10).standard_normal((12, 3))
        Y = X.copy()
        Y[4, 1] = np.nan
        with pytest.raises(NumericError):
            cca_loss(X, Y, 2)
        with pytest.raises(NumericError):
            cca_loss(Y, X, 2)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(DimensionError):
            cca_loss(np.zeros((12, 2)), np.zeros((13, 2)), 1)

    def test_negative_reg_rejected(self):
        X = np.random.default_rng(11).standard_normal((12, 3))
        with pytest.raises(NumericError):
            cca_loss(X, X, 2, reg=-1e-4)
        with pytest.raises(NumericError):
            dcsh_loss(X, X, X, X, 1.0, reg=-1e-4)

    def test_nan_reg_rejected(self):
        # nan fails every comparison, so `reg > 0` alone would skip the ridge
        X = np.random.default_rng(11).standard_normal((12, 3))
        with pytest.raises(NumericError):
            cca_loss(X, X, 2, reg=np.nan)
        with pytest.raises(NumericError):
            dcsh_loss(X, X, X, X, 1.0, reg=np.nan)

    def test_copy_gets_the_same_ridge(self):
        # With Y = X each correlation is lam / (lam + reg) over the
        # eigenvalues lam of X's covariance, so the ridge must reach both
        # autocovariances, whether or not Y is the same array as X.
        X = np.random.default_rng(4).standard_normal((10, 3))
        reg = 0.5
        same = cca_loss(X, X, 2, reg=reg)
        copy = cca_loss(X, X.copy(), 2, reg=reg)
        np.testing.assert_array_equal(copy[1], same[1])
        np.testing.assert_array_equal(copy[2], same[2])
        lam = np.linalg.eigvalsh(np.cov(X, rowvar=False))[::-1][:2]
        np.testing.assert_allclose(copy[1], lam / (lam + reg), rtol=1e-10)


class TestHashTermInvariance:
    """The hash target view of a single-label batch is Y_c @ Z for one-hot
    labels Y_c and center matrix Z. CCA is invariant under an invertible
    affine map of a view (Hotelling, 1936), so when Z's centered rank is
    C - 1 the hash term equals the CCA against the labels themselves,
    whichever centers are used."""

    B, C, M = 32, 10, 200

    def batch(self):
        rng = np.random.default_rng(0)
        X = 1.0 / (1.0 + np.exp(-rng.standard_normal((self.M, self.B))))
        classes = rng.permutation(np.arange(self.M) % self.C)
        Y_c = np.zeros((self.M, self.C))
        Y_c[np.arange(self.M), classes] = 1.0
        return X, Y_c

    def center_sets(self):
        sets = [gen_hadamard_centers(self.B, self.C)]
        sets += [gen_bernoulli_centers(self.B, self.C, seed)
                 for seed in (1, 2, 3)]
        Zs = [s.codes.astype(np.float64) for s in sets]
        for Z in Zs:
            assert np.linalg.matrix_rank(Z - Z.mean(axis=0)) == self.C - 1
        return Zs

    def test_centers_match_label_view_without_ridge(self):
        X, Y_c = self.batch()
        k = self.C - 1
        label_loss = cca_loss(X, Y_c, k, reg=0.0)[0]
        for Z in self.center_sets():
            assert abs(cca_loss(X, Y_c @ Z, k, reg=0.0)[0] - label_loss) < 1e-10

    def test_center_sets_agree_at_default_reg(self):
        # The ridge breaks exact invariance: it is added in the target
        # view's own coordinates. The spread measured on this batch is
        # 4.7e-5 (the gap at reg = 0 is 8.3e-13); the tolerance is 1e-3.
        X, Y_c = self.batch()
        losses = [cca_loss(X, Y_c @ Z, self.C - 1)[0]
                  for Z in self.center_sets()]
        assert max(losses) - min(losses) < 1e-3


class TestAlpha:
    def test_emphasized_32_10(self):
        assert alpha(32, 10, "emphasized") == 31 / 9

    def test_emphasized_32_80(self):
        assert alpha(32, 80, "emphasized") == 31 / 79

    def test_equal_dimensions(self):
        assert alpha(10, 10, "equalized") == 1
        assert alpha(10, 10, "emphasized") == 1

    def test_equalized_formula(self):
        assert alpha(32, 10, "equalized") == 1
        assert alpha(32, 80, "equalized") == 31 / 79

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            alpha(32, 10, "balanced")

    @pytest.mark.parametrize("value", [0.0, 2.5, 3])
    def test_number_returned_unchanged(self, value):
        assert alpha(32, 10, value) is value


class TestLowerBound:
    def test_paper_cases(self):
        assert dcsh_lower_bound(32, 10) == -40
        assert dcsh_lower_bound(32, 80) == -62
        assert dcsh_lower_bound(64, 80) == -126


class TestDcshLoss:
    def test_identical_full_rank_views(self):
        rng = np.random.default_rng(7)
        X_h = rng.standard_normal((40, 4))
        X_c = rng.standard_normal((40, 4))
        loss, _, _ = dcsh_loss(X_h, X_h, X_c, X_c, 1.0, reg=0.0)
        assert abs(loss - (-6.0)) < 1e-5

    def test_alpha_zero_is_hash_term_only(self):
        rng = np.random.default_rng(8)
        X_h = rng.standard_normal((30, 4))
        Y_h = rng.standard_normal((30, 4))
        X_c = rng.standard_normal((30, 3))
        Y_c = rng.standard_normal((30, 3))
        loss, _, g_xc = dcsh_loss(X_h, Y_h, X_c, Y_c, 0.0)
        hash_only = cca_loss(X_h, Y_h, k_max(4, 3, 30))[0]
        assert loss == hash_only
        np.testing.assert_allclose(g_xc, 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        X_h = rng.standard_normal((20, 4))
        Y_h = rng.standard_normal((20, 4))
        X_c = rng.standard_normal((20, 3))
        Y_c = rng.standard_normal((20, 3))
        a = 2.5
        _, g_xh, g_xc = dcsh_loss(X_h, Y_h, X_c, Y_c, a)
        fd_h = fd_gradient(lambda A: dcsh_loss(A, Y_h, X_c, Y_c, a)[0], X_h, 1e-5)
        fd_c = fd_gradient(lambda A: dcsh_loss(X_h, Y_h, A, Y_c, a)[0], X_c, 1e-5)
        for g, fd in ((g_xh, fd_h), (g_xc, fd_c)):
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(g - fd).max() / scale < 1e-4

    def test_small_batch_names_inequality(self):
        with pytest.raises(ConfigurationError) as err:
            dcsh_loss(
                np.zeros((4, 4)), np.zeros((4, 4)),
                np.zeros((4, 2)), np.zeros((4, 2)), 1.0,
            )
        assert "M=4" in str(err.value)
