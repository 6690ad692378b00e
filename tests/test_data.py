import numpy as np
import pytest

from dcsh.centers import LabelSet
from dcsh.data import Dataset, gen_synthetic, multi_hot
from dcsh.errors import ConfigurationError, DimensionError, LabelError


class TestDataset:
    def make(self):
        return Dataset(
            features=np.arange(8, dtype=np.float64).reshape(4, 2),
            labels=[[0], [1], [0, 1], [1]],
            C=2,
            tags=("query", "gallery+train", "gallery", "train"),
        )

    def test_shape_properties(self):
        ds = self.make()
        assert ds.N == 4 and ds.D == 2 and ds.C == 2
        assert all(isinstance(l, LabelSet) for l in ds.labels)

    def test_split_indices(self):
        ds = self.make()
        np.testing.assert_array_equal(ds.query_indices, [0])
        np.testing.assert_array_equal(ds.gallery_indices, [1, 2])
        np.testing.assert_array_equal(ds.train_indices, [1, 3])

    def test_features_read_only(self):
        ds = self.make()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_callers_features_stay_writeable(self):
        F = np.zeros((2, 2))
        ds = Dataset(F, [[0], [0]], C=1, tags=("train",) * 2)
        assert np.shares_memory(ds.features, F)
        assert F.flags.writeable and not ds.features.flags.writeable

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((3, 2)), [[0]], C=1, tags=("train",) * 3)

    def test_tag_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((2, 2)), [[0], [0]], C=1, tags=("train",))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(LabelError):
            Dataset(np.zeros((1, 2)), [[3]], C=2, tags=("train",))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((1, 2)), [[0]], C=1, tags=("test",))

    def test_non_finite_features_rejected(self):
        with pytest.raises(DimensionError):
            Dataset(np.array([[np.inf, 0.0]]), [[0]], C=1, tags=("train",))


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
        assert all(len(l) == 1 for l in ds.labels)

    def test_multilabel_fraction(self):
        ds = gen_synthetic(N=2000, D=8, C=4, multilabel_p=0.4, seed=2)
        doubles = sum(1 for l in ds.labels if len(l) == 2)
        assert all(len(l) in (1, 2) for l in ds.labels)
        assert 0.3 < doubles / ds.N < 0.5

    def test_every_class_covered_in_training(self):
        for seed in range(5):
            ds = gen_synthetic(N=30, D=8, C=7, seed=seed, query_frac=0.2)
            seen = set()
            for i in ds.train_indices:
                seen.update(ds.labels[int(i)].classes)
            assert seen == set(range(7))

    def test_same_seed_is_identical(self):
        a = gen_synthetic(N=50, D=8, C=4, multilabel_p=0.3, seed=9)
        b = gen_synthetic(N=50, D=8, C=4, multilabel_p=0.3, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.labels == b.labels
        assert a.tags == b.tags

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
        y = np.array([ds.labels[int(i)].classes[0] for i in range(ds.N)])
        centroids = np.stack([
            X[train_idx][y[train_idx] == c].mean(axis=0) for c in range(8)
        ])
        d2 = ((X[query_idx][:, None, :] - centroids[None]) ** 2).sum(axis=2)
        pred = d2.argmin(axis=1)
        accuracy = (pred == y[query_idx]).mean()
        assert accuracy >= 0.99

    def test_prototype_scale_controls_separation(self):
        close = gen_synthetic(N=400, D=8, C=4, B_separation=0.5, seed=4)
        far = gen_synthetic(N=400, D=8, C=4, B_separation=12.0, seed=4)

        def spread(ds):
            y = np.array([ds.labels[int(i)].classes[0] for i in range(ds.N)])
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
        y_single = [
            (i, ds.labels[int(i)].classes[0])
            for i in range(ds.N) if len(ds.labels[int(i)]) == 1
        ]
        X = ds.features
        cents = {}
        for c in range(3):
            rows = [i for i, cc in y_single if cc == c]
            cents[c] = X[rows].mean(axis=0)
        pair_rows = [
            i for i in range(ds.N) if ds.labels[int(i)].classes == (0, 1)
        ]
        assert pair_rows
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
