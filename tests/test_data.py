import numpy as np
import pytest

from dcsh.data import (
    SPLIT_ROLES,
    Dataset,
    check_label_table,
    gen_synthetic,
    multi_hot,
    split_indices,
)
from dcsh.errors import ConfigurationError, DimensionError, LabelError


def one_label(*classes):
    """A one-label-per-row table of width max(classes) + 1."""
    return multi_hot([[c] for c in classes], max(classes) + 1)


def roles(*tags):
    """The uint8 role bits of split tags, through `SPLIT_ROLES`."""
    return np.array([SPLIT_ROLES[t] for t in tags], dtype=np.uint8)


class TestDataset:
    def make(self):
        return Dataset(
            features=np.arange(8, dtype=np.float64).reshape(4, 2),
            labels=multi_hot([[0], [1], [0, 1], [1]], 2),
            tags=roles("query", "gallery+train", "gallery", "train"),
        )

    def test_shape_properties(self):
        ds = self.make()
        assert ds.N == 4 and ds.D == 2 and ds.C == 2
        assert ds.labels.dtype == np.float64 and ds.labels.flags.c_contiguous
        np.testing.assert_array_equal(
            ds.labels, [[1, 0], [0, 1], [1, 1], [0, 1]]
        )

    def test_has_three_fields(self):
        assert list(Dataset.__dataclass_fields__) == [
            "features", "labels", "tags"
        ]

    def test_C_is_the_table_width(self):
        # The last class has no sample; the width still counts it.
        ds = Dataset(np.zeros((2, 2)), multi_hot([[0], [1]], 4),
                     tags=roles(*["train"] * 2))
        assert ds.C == 4

    def test_split_indices(self):
        ds = self.make()
        np.testing.assert_array_equal(ds.query_indices, [0])
        np.testing.assert_array_equal(ds.gallery_indices, [1, 2])
        np.testing.assert_array_equal(ds.train_indices, [1, 3])

    def test_features_read_only(self):
        ds = self.make()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_labels_read_only(self):
        ds = self.make()
        with pytest.raises(ValueError):
            ds.labels[0, 1] = 1.0

    def test_callers_features_stay_writeable(self):
        F = np.zeros((2, 2))
        Y = one_label(0, 0)
        ds = Dataset(F, Y, tags=roles(*["train"] * 2))
        assert np.shares_memory(ds.features, F)
        assert F.flags.writeable and not ds.features.flags.writeable
        assert np.shares_memory(ds.labels, Y)
        assert Y.flags.writeable and not ds.labels.flags.writeable

    def test_tags_are_read_only_role_bits(self):
        ds = self.make()
        assert ds.tags.dtype == np.uint8
        np.testing.assert_array_equal(ds.tags, [4, 3, 2, 1])
        with pytest.raises(ValueError):
            ds.tags[0] = 1

    def test_callers_tags_stay_writeable(self):
        T = roles("train", "query")
        ds = Dataset(np.zeros((2, 2)), one_label(0, 0), tags=T)
        assert np.shares_memory(ds.tags, T)
        assert T.flags.writeable and not ds.tags.flags.writeable

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(DimensionError, match=r"\(1, 1\) vs 3"):
            Dataset(np.zeros((3, 2)), one_label(0),
                    tags=roles(*["train"] * 3))

    def test_tag_count_mismatch_rejected(self):
        with pytest.raises(DimensionError) as err:
            Dataset(np.zeros((2, 2)), one_label(0, 0), tags=roles("train"))
        assert str(err.value) == "split tags of shape (1,) vs 2 feature rows"

    def test_out_of_range_label_rejected(self):
        # A class >= C cannot reach a Dataset: multi_hot, which builds
        # the table from label sets, rejects it.
        with pytest.raises(LabelError, match="class index 3 >= C=2"):
            Dataset(np.zeros((1, 2)), multi_hot([[3]], 2),
                    tags=roles("train"))

    @pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.nan])
    def test_non_binary_entry_rejected(self, bad):
        Y = one_label(0, 1)
        Y[1, 0] = bad
        with pytest.raises(DimensionError, match="0 or 1"):
            Dataset(np.zeros((2, 2)), Y, tags=roles(*["train"] * 2))

    def test_row_without_class_rejected(self):
        Y = one_label(0, 1, 0)
        Y[1] = 0.0
        with pytest.raises(LabelError, match="sample 1 has no class"):
            Dataset(np.zeros((3, 2)), Y, tags=roles(*["train"] * 3))

    def test_one_dimensional_table_rejected(self):
        with pytest.raises(DimensionError, match="label table of shape"):
            Dataset(np.zeros((2, 2)), np.ones(2),
                    tags=roles(*["train"] * 2))

    def test_zero_classes_rejected(self):
        with pytest.raises(LabelError, match="sample 0 has no class"):
            Dataset(np.zeros((1, 2)), np.zeros((1, 0)),
                    tags=roles("train"))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((1, 2)), one_label(0), tags=("test",))

    @pytest.mark.parametrize("tags, error, message", [
        (("train", "query"), ConfigurationError,
         "sample 0 has unknown split tag 'train'"),
        *[(np.array([3, value], dtype=np.uint8), ConfigurationError,
           f"sample 1 has unknown split tag {value}")
          for value in (0, 5, 6, 7, 8)],
        (roles("train", "query").reshape(2, 1), DimensionError,
         "split tags of shape (2, 1) vs 2 feature rows"),
    ], ids=["tag-strings", "role-0", "role-5", "role-6", "role-7", "role-8",
            "two-dimensional"])
    def test_bad_tags_rejected(self, tags, error, message):
        """Only N role bits from `SPLIT_ROLES` make tags; there is no
        second path for tag strings."""
        with pytest.raises(error) as err:
            Dataset(np.zeros((2, 2)), one_label(0, 0), tags=tags)
        assert str(err.value) == message

    def test_non_finite_features_rejected(self):
        with pytest.raises(DimensionError):
            Dataset(np.array([[np.inf, 0.0]]), one_label(0),
                    tags=roles("train"))


class TestSplitIndices:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_string_rule(self, seed):
        """Role bits select the rows that the string rule, a tag names
        `which` among its `+` parts, selects."""
        rng = np.random.default_rng(seed)
        tags = rng.choice(list(SPLIT_ROLES), size=rng.integers(0, 300))
        T = roles(*tags)
        for which in ("train", "gallery", "query"):
            got = split_indices(T, which)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(
                got, [n for n, t in enumerate(tags) if which in t.split("+")]
            )
        np.testing.assert_array_equal(
            split_indices(T, "all"), np.arange(len(tags))
        )

    def test_unknown_split_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            split_indices(roles("train"), "bogus")
        assert str(err.value) == (
            "split must be train, gallery, query, or all, got 'bogus'"
        )


class TestCheckLabelTable:
    def test_good_tables_pass(self):
        check_label_table(multi_hot([[0], [1, 2]], 3))
        check_label_table(np.array([[True, False]]))

    @pytest.mark.parametrize("Y, error, message", [
        (np.array([[1.0, 2.0]]), DimensionError,
         "label table entries must be 0 or 1"),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), LabelError,
         "sample 1 has no class"),
        (np.array([[0.0, 0.5], [0.0, 0.0]]), DimensionError,
         "label table entries must be 0 or 1"),
    ], ids=["non-binary", "empty-row", "non-binary-before-empty-row"])
    def test_rejections(self, Y, error, message):
        with pytest.raises(error) as err:
            check_label_table(Y)
        assert str(err.value) == message


class TestMultiHot:
    def test_rows(self):
        Y = multi_hot([[0], [2], [0, 2]], C=3)
        np.testing.assert_array_equal(
            Y, [[1, 0, 0], [0, 0, 1], [1, 0, 1]]
        )
        assert Y.dtype == np.float64

    def test_out_of_range_rejected(self):
        with pytest.raises(LabelError):
            multi_hot([[4]], C=3)


class TestGenSynthetic:
    def test_shapes_and_split_counts(self):
        ds = gen_synthetic(N=100, D=8, C=5, seed=0, query_frac=0.1)
        assert ds.N == 100 and ds.D == 8 and ds.C == 5
        assert ds.query_indices.shape[0] == 10
        assert ds.gallery_indices.shape[0] == 90
        np.testing.assert_array_equal(ds.gallery_indices, ds.train_indices)

    def test_all_labels_singleton_without_multilabel(self):
        ds = gen_synthetic(N=60, D=8, C=4, multilabel_p=0.0, seed=1)
        assert (ds.labels.sum(axis=1) == 1).all()

    def test_multilabel_fraction(self):
        ds = gen_synthetic(N=2000, D=8, C=4, multilabel_p=0.4, seed=2)
        sizes = ds.labels.sum(axis=1)
        assert np.isin(sizes, (1, 2)).all()
        assert 0.3 < (sizes == 2).mean() < 0.5

    def test_every_class_covered_in_training(self):
        for seed in range(5):
            ds = gen_synthetic(N=30, D=8, C=7, seed=seed, query_frac=0.2)
            assert ds.labels[ds.train_indices].any(axis=0).all()

    def test_same_seed_is_identical(self):
        a = gen_synthetic(N=50, D=8, C=4, multilabel_p=0.3, seed=9)
        b = gen_synthetic(N=50, D=8, C=4, multilabel_p=0.3, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.tags, b.tags)

    def test_seed_changes_features(self):
        a = gen_synthetic(N=50, D=8, C=4, seed=1)
        b = gen_synthetic(N=50, D=8, C=4, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_classes_separate_at_default_scale(self):
        # fitted class centroids classify held-out points near perfectly
        ds = gen_synthetic(N=1000, D=16, C=8, B_separation=6.0, seed=3,
                           query_frac=0.2, multilabel_p=0.0)
        train_idx = ds.train_indices
        query_idx = ds.query_indices
        X = ds.features
        y = ds.labels.argmax(axis=1)
        centroids = np.stack([
            X[train_idx][y[train_idx] == c].mean(axis=0) for c in range(8)
        ])
        d2 = ((X[query_idx][:, None, :] - centroids[None]) ** 2).sum(axis=2)
        pred = d2.argmin(axis=1)
        accuracy = (pred == y[query_idx]).mean()
        assert accuracy >= 0.99

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_separation_rejected(self, value):
        with pytest.raises(ConfigurationError, match="must be finite"):
            gen_synthetic(N=40, D=8, C=4, B_separation=value)

    def test_prototype_scale_controls_separation(self):
        close = gen_synthetic(N=400, D=8, C=4, B_separation=0.5, seed=4)
        far = gen_synthetic(N=400, D=8, C=4, B_separation=12.0, seed=4)

        def spread(ds):
            y = ds.labels.argmax(axis=1)
            cents = np.stack([
                ds.features[y == c].mean(axis=0) for c in range(4)
            ])
            return np.linalg.norm(
                cents[:, None, :] - cents[None], axis=2
            )[np.triu_indices(4, k=1)].min()

        assert spread(far) > 4 * spread(close)

    def test_multilabel_means_sit_between_prototypes(self):
        ds = gen_synthetic(N=3000, D=8, C=3, B_separation=10.0,
                           multilabel_p=0.5, seed=5, query_frac=0.0)
        single = ds.labels.sum(axis=1) == 1
        X = ds.features
        cents = {
            c: X[single & (ds.labels[:, c] == 1)].mean(axis=0)
            for c in range(3)
        }
        pair_rows = (ds.labels == [1, 1, 0]).all(axis=1)
        assert pair_rows.any()
        mid = X[pair_rows].mean(axis=0)
        expect = (cents[0] + cents[1]) / 2
        assert np.linalg.norm(mid - expect) < 1.0

    @pytest.mark.parametrize("kwargs", [
        {"N": 10, "D": 4, "C": 0},
        {"N": 10, "D": 4, "C": 6},
        {"N": 10, "D": 8, "C": 4, "multilabel_p": 1.0},
        {"N": 10, "D": 8, "C": 4, "query_frac": 1.0},
        {"N": 3, "D": 8, "C": 4},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            gen_synthetic(**kwargs)
