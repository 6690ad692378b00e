import itertools

import numpy as np
import pytest

from dcsh.centers import (
    HashCenterSet,
    LabelSet,
    assign_target,
    gen_bernoulli_centers,
    gen_hadamard_centers,
    min_pairwise_distance,
    update_centers,
)
from dcsh.errors import (
    ConfigurationError,
    CoverageError,
    DimensionError,
    LabelError,
)


def brute_force_update(hashes, label_sets, C, normalized=False):
    """Straight-line oracle for the center update, one class at a time."""
    B = hashes.shape[1]
    codes = np.zeros((C, B), dtype=np.uint8)
    for c in range(C):
        total = np.zeros(B)
        weight_sum = 0.0
        count = 0
        for n, ls in enumerate(label_sets):
            if c in ls:
                w = 1.0 / len(ls)
                total += w * (2.0 * hashes[n] - 1.0)
                weight_sum += w
                count += 1
        mean = total / (weight_sum if normalized else count)
        codes[c] = (mean >= 0).astype(np.uint8)
    return codes


class TestLabelSet:
    def test_sorts_and_stores(self):
        ls = LabelSet([3, 1, 2])
        assert ls.classes == (1, 2, 3)
        assert len(ls) == 3
        assert 2 in ls and 0 not in ls
        assert list(ls) == [1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(LabelError):
            LabelSet([])

    def test_duplicate_rejected(self):
        with pytest.raises(LabelError):
            LabelSet([1, 1])

    def test_negative_rejected(self):
        with pytest.raises(LabelError):
            LabelSet([-1, 2])


class TestHashCenterSet:
    def test_shape_properties(self):
        cs = HashCenterSet(np.zeros((3, 8), dtype=np.uint8))
        assert cs.C == 3 and cs.B == 8 and cs.epoch == 0

    def test_codes_read_only(self):
        cs = HashCenterSet(np.ones((2, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            cs.codes[0, 0] = 0

    def test_non_binary_rejected(self):
        with pytest.raises(DimensionError):
            HashCenterSet(np.array([[0, 2]]))
        with pytest.raises(DimensionError):
            HashCenterSet(np.array([[0.5, 1.0]]))
        with pytest.raises(DimensionError):
            HashCenterSet(np.array([[-1, 1]]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigurationError):
            HashCenterSet(np.zeros((1, 2), dtype=np.uint8), epoch=-1)


class TestHadamard:
    def test_four_bit_rows(self):
        cs = gen_hadamard_centers(4, 2)
        assert "".join(map(str, cs.codes[0])) == "1111"
        assert "".join(map(str, cs.codes[1])) == "1010"

    def test_two_bit_rows(self):
        cs = gen_hadamard_centers(2, 2)
        assert "".join(map(str, cs.codes[0])) == "11"
        assert "".join(map(str, cs.codes[1])) == "10"

    @pytest.mark.parametrize("B", [2, 4, 8, 16, 32, 64])
    def test_all_pairs_at_half_distance(self, B):
        cs = gen_hadamard_centers(B, B)
        for i, j in itertools.combinations(range(B), 2):
            d = int((cs.codes[i] != cs.codes[j]).sum())
            assert d == B // 2

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_hadamard_centers(12, 4)

    def test_too_many_classes_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_hadamard_centers(8, 9)


class TestBernoulli:
    def test_deterministic_for_seed(self):
        a = gen_bernoulli_centers(24, 8, seed=3)
        b = gen_bernoulli_centers(24, 8, seed=3)
        np.testing.assert_array_equal(a.codes, b.codes)

    def test_seed_changes_output(self):
        a = gen_bernoulli_centers(24, 8, seed=3)
        b = gen_bernoulli_centers(24, 8, seed=4)
        assert not np.array_equal(a.codes, b.codes)

    def test_best_of_trials_separation(self):
        cs = gen_bernoulli_centers(48, 10, seed=7, trials=100)
        assert cs.B == 48 and cs.C == 10
        d = min_pairwise_distance(cs)
        assert d == 20
        assert d >= 16

    def test_more_trials_never_hurt(self):
        few = min_pairwise_distance(gen_bernoulli_centers(32, 6, seed=1, trials=1))
        many = min_pairwise_distance(gen_bernoulli_centers(32, 6, seed=1, trials=50))
        assert many >= few

    def test_single_class(self):
        cs = gen_bernoulli_centers(16, 1, seed=0)
        assert cs.C == 1


class TestAssignTarget:
    def test_single_label_passthrough(self):
        cs = gen_hadamard_centers(8, 4)
        out = assign_target(LabelSet([2]), cs, seed=0)
        np.testing.assert_array_equal(out, cs.codes[2])

    def test_majority_without_ties(self):
        codes = np.array([
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [1, 0, 1, 0],
        ], dtype=np.uint8)
        cs = HashCenterSet(codes)
        out = assign_target(LabelSet([0, 1, 2]), cs, seed=9)
        np.testing.assert_array_equal(out, [1, 1, 1, 0])

    def test_tie_bits_use_keyed_draws(self):
        codes = np.array([[1, 0, 1, 0], [1, 1, 0, 0]], dtype=np.uint8)
        cs = HashCenterSet(codes)
        out = assign_target(LabelSet([0, 1]), cs, seed=0)
        draws = np.random.default_rng(
            np.random.SeedSequence([0, 0, 1])
        ).integers(0, 2, size=4, dtype=np.uint8)
        np.testing.assert_array_equal(draws, [0, 1, 1, 1])
        np.testing.assert_array_equal(out, [1, 1, 1, 0])

    def test_tie_resolution_stable_and_order_free(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 2, size=(6, 16), dtype=np.uint8)
        cs = HashCenterSet(codes)
        a = assign_target(LabelSet([4, 1]), cs, seed=5)
        b = assign_target(LabelSet([1, 4]), cs, seed=5)
        c = assign_target(LabelSet([1, 4]), cs, seed=5)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b, c)

    def test_seed_distinguishes_tie_draws(self):
        codes = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        cs = HashCenterSet(codes)
        outs = {
            tuple(assign_target(LabelSet([0, 1]), cs, seed=s)) for s in range(20)
        }
        assert len(outs) > 1

    def test_out_of_range_label_rejected(self):
        cs = gen_hadamard_centers(4, 2)
        with pytest.raises(LabelError):
            assign_target(LabelSet([2]), cs, seed=0)

    def test_plain_iterable_accepted(self):
        cs = gen_hadamard_centers(8, 4)
        out = assign_target([3], cs, seed=0)
        np.testing.assert_array_equal(out, cs.codes[3])


class TestUpdateCenters:
    def test_single_label_hand_case(self):
        hashes = np.array([[0.9, 0.2], [0.7, 0.4]])
        labels = [[0], [0]]
        cs = update_centers(hashes, labels, C=1)
        # means: (0.8+0.4)/2 = 0.6 -> 1, (-0.6-0.2)/2 = -0.4 -> 0
        np.testing.assert_array_equal(cs.codes, [[1, 0]])

    def test_multi_label_weighting(self):
        hashes = np.array([[0.9, 0.9], [0.3, 0.9]])
        labels = [[0], [0, 1]]
        cs = update_centers(hashes, labels, C=2)
        # class 0: ((2*0.9-1) + 0.5*(2*0.3-1))/2 = 0.3 -> 1
        #          ((2*0.9-1) + 0.5*(2*0.9-1))/2 = 0.6 -> 1
        np.testing.assert_array_equal(cs.codes[0], [1, 1])
        # class 1: 0.5*(2*0.3-1)/1 = -0.2 -> 0; 0.5*(2*0.9-1)/1 = 0.4 -> 1
        np.testing.assert_array_equal(cs.codes[1], [0, 1])

    def test_zero_mean_maps_to_one(self):
        hashes = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = [[0], [0]]
        cs = update_centers(hashes, labels, C=1)
        # both bits average to exactly 0 -> threshold keeps 1
        np.testing.assert_array_equal(cs.codes, [[1, 1]])

    def test_binary_inputs_are_fixed_point(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            C, B, per = 4, 12, 5
            centers = rng.integers(0, 2, size=(C, B), dtype=np.uint8)
            hashes = np.repeat(centers, per, axis=0).astype(np.float64)
            labels = [[c] for c in np.repeat(np.arange(C), per)]
            cs = update_centers(hashes, labels, C=C, epoch=3)
            np.testing.assert_array_equal(cs.codes, centers)
            assert cs.epoch == 3

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(17)
        N, C, B = 30, 5, 8
        hashes = rng.random((N, B))
        labels = [
            sorted(rng.choice(C, size=rng.integers(1, 3), replace=False))
            for _ in range(N)
        ]
        for c in range(C):
            labels[c] = [c]  # guarantee coverage
        base = update_centers(hashes, labels, C=C)
        perm = rng.permutation(N)
        shuffled = update_centers(
            hashes[perm], [labels[i] for i in perm], C=C
        )
        np.testing.assert_array_equal(base.codes, shuffled.codes)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            C = int(rng.integers(2, 6))
            B = int(rng.integers(2, 17))
            N = int(rng.integers(C, 21))
            hashes = rng.random((N, B))
            # exact-tie fodder: some rows sit at 0.5 or at hard 0/1
            picks = rng.random((N, B))
            hashes[picks < 0.2] = 0.5
            hashes[picks > 0.9] = np.round(hashes[picks > 0.9])
            labels = [[c] for c in range(C)] + [
                sorted(rng.choice(C, size=rng.integers(1, min(C, 3) + 1),
                                  replace=False))
                for _ in range(N - C)
            ]
            got = update_centers(hashes, labels, C=C)
            # Group size or weight sum: a positive divisor keeps the sign.
            for normalized in (False, True):
                want = brute_force_update(
                    hashes, [LabelSet(l) for l in labels], C, normalized
                )
                np.testing.assert_array_equal(got.codes, want)

    def test_missing_class_named(self):
        hashes = np.array([[0.5, 0.5]])
        with pytest.raises(CoverageError) as err:
            update_centers(hashes, [[0]], C=3)
        assert "class 1" in str(err.value)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            update_centers(np.zeros((2, 4)), [[0]], C=1)

    def test_non_finite_rejected(self):
        hashes = np.array([[0.5, np.nan]])
        with pytest.raises(DimensionError):
            update_centers(hashes, [[0]], C=1)
