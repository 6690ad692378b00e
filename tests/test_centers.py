import itertools

import numpy as np
import pytest

from dcsh import data, kernels
from dcsh.centers import (
    HashCenterSet,
    assign_target,
    gen_bernoulli_centers,
    gen_hadamard_centers,
    min_pairwise_distance,
    update_centers,
)
from dcsh.data import (
    SPLIT_ROLES,
    Dataset,
    label_classes,
    label_incidence,
    multi_hot,
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
        ls = label_classes([3, 1, 2])
        assert ls == (1, 2, 3)
        assert len(ls) == 3
        assert 2 in ls and 0 not in ls
        assert list(ls) == [1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(LabelError):
            label_classes([])

    def test_duplicate_rejected(self):
        with pytest.raises(LabelError):
            label_classes([1, 1])

    def test_negative_rejected(self):
        with pytest.raises(LabelError):
            label_classes([-1, 2])

    def test_bound_checked_only_when_given(self):
        assert label_classes(np.array([4, 0]), C=5) == (0, 4)
        assert label_classes([7]) == (7,)
        with pytest.raises(LabelError, match=r"^class index 5 >= C=5$"):
            label_classes([5, 0], C=5)


class TestHashCenterSet:
    def test_shape_properties(self):
        cs = HashCenterSet(np.zeros((3, 8), dtype=np.uint8))
        assert cs.C == 3 and cs.B == 8 and cs.epoch == 0

    def test_codes_read_only(self):
        cs = HashCenterSet(np.ones((2, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            cs.codes[0, 0] = 0

    def test_callers_array_stays_writeable(self):
        codes = np.ones((2, 4), dtype=np.uint8)
        cs = HashCenterSet(codes)
        assert np.shares_memory(cs.codes, codes)
        assert codes.flags.writeable and not cs.codes.flags.writeable

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
        cs = gen_bernoulli_centers(48, 10, seed=7)
        assert cs.B == 48 and cs.C == 10
        d = min_pairwise_distance(cs)
        assert d == 20
        assert d >= 16

    def test_more_trials_never_hurt(self, monkeypatch):
        many = min_pairwise_distance(gen_bernoulli_centers(32, 6, seed=1))
        monkeypatch.setattr("dcsh.centers.BERNOULLI_TRIALS", 1)
        few = min_pairwise_distance(gen_bernoulli_centers(32, 6, seed=1))
        assert many >= few

    def test_single_class(self):
        cs = gen_bernoulli_centers(16, 1, seed=0)
        assert cs.C == 1


@pytest.mark.parametrize("B", [1, 63, 64, 65, 67, 128, 130, 200])
@pytest.mark.parametrize("C", [2, 7, 300])
@pytest.mark.parametrize("tie", [False, True])
def test_min_pairwise_distance_matches_bit_loop(B, C, tie):
    codes = np.random.default_rng(B * C).integers(0, 2, size=(C, B))
    if tie:
        # C = 300 spans two to six blocks of the scan at these B; the
        # tied pair (280, 299) is found in a block after the first.
        first = max(0, C - 20)
        if C == 300:
            step = kernels.SCAN_BLOCK_WORDS // (C * kernels.word_count(B))
            assert step <= first
        codes[-1] = codes[first]
    want = min(int((a != b).sum()) for a, b in itertools.combinations(codes, 2))
    assert want == 0 or not tie
    assert min_pairwise_distance(HashCenterSet(codes)) == want


class TestAssignTarget:
    def test_single_label_passthrough(self):
        cs = gen_hadamard_centers(8, 4)
        out = assign_target(label_classes([2]), cs, seed=0)
        np.testing.assert_array_equal(out, cs.codes[2])

    def test_majority_without_ties(self):
        codes = np.array([
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [1, 0, 1, 0],
        ], dtype=np.uint8)
        cs = HashCenterSet(codes)
        out = assign_target(label_classes([0, 1, 2]), cs, seed=9)
        np.testing.assert_array_equal(out, [1, 1, 1, 0])

    def test_tie_bits_use_keyed_draws(self):
        codes = np.array([[1, 0, 1, 0], [1, 1, 0, 0]], dtype=np.uint8)
        cs = HashCenterSet(codes)
        out = assign_target(label_classes([0, 1]), cs, seed=0)
        draws = np.random.default_rng(
            np.random.SeedSequence([0, 0, 1])
        ).integers(0, 2, size=4, dtype=np.uint8)
        np.testing.assert_array_equal(draws, [0, 1, 1, 1])
        np.testing.assert_array_equal(out, [1, 1, 1, 0])

    def test_tie_resolution_stable_and_order_free(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 2, size=(6, 16), dtype=np.uint8)
        cs = HashCenterSet(codes)
        a = assign_target(label_classes([4, 1]), cs, seed=5)
        b = assign_target(label_classes([1, 4]), cs, seed=5)
        c = assign_target(label_classes([1, 4]), cs, seed=5)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b, c)

    def test_seed_distinguishes_tie_draws(self):
        codes = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        cs = HashCenterSet(codes)
        outs = {
            tuple(assign_target(label_classes([0, 1]), cs, seed=s))
            for s in range(20)
        }
        assert len(outs) > 1

    def test_out_of_range_label_rejected(self):
        cs = gen_hadamard_centers(4, 2)
        with pytest.raises(LabelError, match=r"^class index 2 >= C=2$"):
            assign_target(label_classes([2]), cs, seed=0)

    def test_plain_iterable_accepted(self):
        cs = gen_hadamard_centers(8, 4)
        out = assign_target([3], cs, seed=0)
        np.testing.assert_array_equal(out, cs.codes[3])


class TestUpdateCenters:
    def test_single_label_hand_case(self):
        hashes = np.array([[0.9, 0.2], [0.7, 0.4]])
        cs = update_centers(hashes, multi_hot([[0], [0]], 1))
        # means: (0.8+0.4)/2 = 0.6 -> 1, (-0.6-0.2)/2 = -0.4 -> 0
        np.testing.assert_array_equal(cs.codes, [[1, 0]])

    def test_multi_label_weighting(self):
        hashes = np.array([[0.9, 0.9], [0.3, 0.9]])
        cs = update_centers(hashes, multi_hot([[0], [0, 1]], 2))
        # class 0: ((2*0.9-1) + 0.5*(2*0.3-1))/2 = 0.3 -> 1
        #          ((2*0.9-1) + 0.5*(2*0.9-1))/2 = 0.6 -> 1
        np.testing.assert_array_equal(cs.codes[0], [1, 1])
        # class 1: 0.5*(2*0.3-1)/1 = -0.2 -> 0; 0.5*(2*0.9-1)/1 = 0.4 -> 1
        np.testing.assert_array_equal(cs.codes[1], [0, 1])

    def test_zero_mean_maps_to_one(self):
        hashes = np.array([[1.0, 0.0], [0.0, 1.0]])
        cs = update_centers(hashes, multi_hot([[0], [0]], 1))
        # both bits average to exactly 0 -> threshold keeps 1
        np.testing.assert_array_equal(cs.codes, [[1, 1]])

    def test_binary_inputs_are_fixed_point(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            C, B, per = 4, 12, 5
            centers = rng.integers(0, 2, size=(C, B), dtype=np.uint8)
            hashes = np.repeat(centers, per, axis=0).astype(np.float64)
            labels = [[c] for c in np.repeat(np.arange(C), per)]
            cs = update_centers(hashes, multi_hot(labels, C), epoch=3)
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
        Y = multi_hot(labels, C)
        base = update_centers(hashes, Y)
        perm = rng.permutation(N)
        shuffled = update_centers(hashes[perm], Y[perm])
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
            got = update_centers(hashes, multi_hot(labels, C))
            # Group size or weight sum: a positive divisor keeps the sign.
            for normalized in (False, True):
                want = brute_force_update(
                    hashes, [label_classes(l) for l in labels], C, normalized
                )
                np.testing.assert_array_equal(got.codes, want)

    def test_missing_class_named(self):
        hashes = np.array([[0.5, 0.5]])
        with pytest.raises(CoverageError) as err:
            update_centers(hashes, multi_hot([[0]], 3))
        assert "class 1" in str(err.value)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            update_centers(np.zeros((2, 4)), multi_hot([[0]], 1))

    def test_non_finite_rejected(self):
        hashes = np.array([[0.5, np.nan]])
        with pytest.raises(DimensionError):
            update_centers(hashes, multi_hot([[0]], 1))

    @pytest.mark.parametrize("hashes, Y", [
        (np.zeros(4), np.ones((4, 1))),
        (np.zeros((1, 4)), np.ones(1)),
    ])
    def test_one_dimensional_input_rejected(self, hashes, Y):
        with pytest.raises(DimensionError, match="equal rows"):
            update_centers(hashes, Y)

    @pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.nan])
    def test_non_binary_table_rejected(self, bad):
        Y = multi_hot([[0], [1]], 2)
        Y[1, 1] = bad
        with pytest.raises(DimensionError, match="0 or 1"):
            update_centers(np.full((2, 3), 0.5), Y)

    def test_row_without_class_rejected(self):
        Y = multi_hot([[0], [1], [0]], 2)
        Y[2] = 0.0
        with pytest.raises(LabelError, match="sample 2"):
            update_centers(np.full((3, 3), 0.5), Y)

    @pytest.mark.parametrize("row, error", [
        ([2.0, 0.0], DimensionError),
        ([0.0, 0.0], LabelError),
    ], ids=["non-binary", "no-class"])
    def test_table_check_shared_with_dataset(self, row, error):
        """One check rejects a bad table, with the same exception type
        and message in the center update and in `Dataset`."""
        Y = multi_hot([[0], [1], [0, 1]], 2)
        Y[1] = row
        with pytest.raises(error) as in_update:
            update_centers(np.full((3, 3), 0.5), Y)
        with pytest.raises(error) as in_dataset:
            Dataset(np.zeros((3, 2)), Y,
                    tags=np.full(3, SPLIT_ROLES["train"]))
        assert str(in_update.value) == str(in_dataset.value)

    def test_uncovered_class_rejected(self):
        Y = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        with pytest.raises(CoverageError, match="class 1"):
            update_centers(np.full((2, 3), 0.5), Y)

    def test_bool_and_float_tables_agree(self):
        rng = np.random.default_rng(29)
        hashes = rng.random((40, 9))
        labels = [[c] for c in range(5)] + [
            sorted(rng.choice(5, size=2, replace=False)) for _ in range(35)
        ]
        table = label_incidence(labels, 5)
        assert table.dtype == bool
        np.testing.assert_array_equal(
            update_centers(hashes, table).codes,
            update_centers(hashes, multi_hot(labels, 5)).codes,
        )


class TestLabelIncidence:
    def test_width_defaults_to_largest_class(self):
        table = label_incidence([[0], [3, 1]])
        assert table.shape == (2, 4)
        np.testing.assert_array_equal(
            table, [[1, 0, 0, 0], [0, 1, 0, 1]]
        )
        assert label_incidence([[2]], C=5).shape == (1, 5)

    def test_empty_has_no_columns(self):
        assert label_incidence([]).shape == (0, 0)

    def test_sets_still_validated(self):
        with pytest.raises(LabelError):
            label_incidence([[0], []])
        with pytest.raises(LabelError):
            label_incidence([[1, 1]])

    @pytest.mark.parametrize("bad, message", [
        ([], "label set is empty"),
        ([2, 2], "duplicate class indices in (2, 2)"),
        ([-1, 0], "negative class index in (-1, 0)"),
        ([1, 4], "class index 4 >= C=4"),
    ], ids=["empty", "repeat", "negative", "too-large"])
    def test_first_bad_sample_named(self, bad, message):
        labels = [[0], [3, 1], bad, [0, 0], [2]]
        with pytest.raises(LabelError) as err:
            label_incidence(labels, C=4)
        assert str(err.value) == f"sample 2: {message}"

    def test_valid_sets_skip_the_row_check(self, monkeypatch):
        def refuse(classes, C=None):
            raise AssertionError("a valid input went row by row")

        monkeypatch.setattr(data, "label_classes", refuse)
        table = label_incidence([(0, 2), (1,), np.array([2])], C=3)
        np.testing.assert_array_equal(
            table, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
        )
