"""Datasets (features, N x C 0/1 label table, split role bits) and the
label code: `label_classes`, the rule of one label set (a sorted tuple
of class indices), then `label_incidence`, `multi_hot`, `check_label_table`.

Also provides the seeded synthetic generator used for desk-scale runs:
class prototypes on a scaled unit sphere, unit Gaussian noise, optional
second labels, and a query/gallery split with the training set equal to
the gallery.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DimensionError, LabelError
from .numerics import check_seed

# Split tag -> role bits; a row is in each split whose bit it sets.
SPLIT_ROLES = {"train": 1, "gallery": 2, "query": 4, "gallery+train": 3}


@dataclass(frozen=True)
class Dataset:
    """N samples: features (N x D), float64 N x C 0/1 label table, and
    tags, N uint8 role bits (`SPLIT_ROLES`)."""

    features: np.ndarray
    labels: np.ndarray
    tags: np.ndarray

    def __post_init__(self):
        # Views, so the caller's arrays stay writeable.
        F = np.ascontiguousarray(self.features, dtype=np.float64).view()
        if F.ndim != 2:
            raise DimensionError(f"features must be 2-D, got ndim={F.ndim}")
        if not np.all(np.isfinite(F)):
            raise DimensionError("features contain non-finite entries")
        F.setflags(write=False)
        object.__setattr__(self, "features", F)
        Y = np.ascontiguousarray(self.labels, dtype=np.float64).view()
        if Y.ndim != 2 or Y.shape[0] != F.shape[0]:
            raise DimensionError(
                f"label table of shape {Y.shape} vs {F.shape[0]} feature rows"
            )
        check_label_table(Y)
        Y.setflags(write=False)
        object.__setattr__(self, "labels", Y)
        T = np.asarray(self.tags)
        if T.shape != (F.shape[0],):
            raise DimensionError(
                f"split tags of shape {T.shape} vs {F.shape[0]} feature rows"
            )
        bad = np.flatnonzero(~np.isin(T, tuple(SPLIT_ROLES.values())))
        if bad.size:
            n = int(bad[0])
            raise ConfigurationError(
                f"sample {n} has unknown split tag {T[n].item()!r}"
            )
        T = T.astype(np.uint8, copy=False).view()
        T.setflags(write=False)
        object.__setattr__(self, "tags", T)

    @property
    def C(self):
        return self.labels.shape[1]

    @property
    def N(self):
        return self.features.shape[0]

    @property
    def D(self):
        return self.features.shape[1]

    @property
    def train_indices(self):
        return split_indices(self.tags, "train")

    @property
    def gallery_indices(self):
        return split_indices(self.tags, "gallery")

    @property
    def query_indices(self):
        return split_indices(self.tags, "query")


def split_indices(tags, which):
    """Rows whose role bits hold `which` (train, gallery or query); "all"
    selects every row."""
    if which == "all":
        return np.arange(len(tags), dtype=np.int64)
    if which not in ("train", "gallery", "query"):
        raise ConfigurationError(
            f"split must be train, gallery, query, or all, got {which!r}"
        )
    rows = np.flatnonzero(tags & SPLIT_ROLES[which])
    return rows.astype(np.int64, copy=False)


def label_classes(classes, C=None):
    """One sample's label set as a sorted tuple of class indices, under
    the one label-set rule: at least one class, none negative, none
    twice, and none >= C when C is given."""
    items = tuple(sorted(map(int, classes)))
    if not items:
        raise LabelError("label set is empty")
    if len(set(items)) != len(items):
        raise LabelError(f"duplicate class indices in {items}")
    if items[0] < 0:
        raise LabelError(f"negative class index in {items}")
    if C is not None and items[-1] >= C:
        raise LabelError(f"class index {items[-1]} >= C={C}")
    return items


def label_incidence(labels, C=None):
    """Label sets -> N x C boolean table, True where a sample carries a
    class; column-major, so one class is one contiguous column. C
    defaults to the largest class + 1. Checked in bulk (a class per row,
    each in [0, C), one True per class); a failing input is walked
    through `label_classes` to name its first bad sample."""
    sets = tuple(labels)
    classes = np.fromiter(chain.from_iterable(sets), dtype=np.int64)
    counts = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    if C is None:
        C = int(classes.max(initial=-1)) + 1
    table = np.zeros((C, len(sets)), dtype=bool).T
    if (counts.min(initial=1) > 0 and classes.min(initial=0) >= 0
            and classes.max(initial=-1) < C):
        table[np.repeat(np.arange(len(sets)), counts), classes] = True
        if np.count_nonzero(table) == classes.size:  # so no class repeats
            return table
    for n, classes_n in enumerate(sets):
        try:
            label_classes(classes_n, C)
        except LabelError as exc:
            raise LabelError(f"sample {n}: {exc}") from None


def multi_hot(labels, C):
    """Label sets -> N x C float64 indicator matrix."""
    return label_incidence(labels, C).astype(np.float64, order="C")


def check_label_table(Y):
    """The one check of a label table: entries 0 or 1, a class per row."""
    if not ((Y == 0) | (Y == 1)).all():
        raise DimensionError("label table entries must be 0 or 1")
    empty = np.flatnonzero(~Y.any(axis=1))
    if empty.size:
        raise LabelError(f"sample {empty[0]} has no class")


def gen_synthetic(N, D, C, B_separation=6.0, multilabel_p=0.0, seed=0,
                  query_frac=0.1):
    """Seeded synthetic dataset of C noisy point clouds in R^D.

    Class prototypes are drawn on the unit sphere and scaled by
    B_separation; each sample is the mean of its labels' prototypes
    plus unit Gaussian noise. Base labels are assigned round robin, so
    every class is covered; a sample gains a second distinct label with
    probability multilabel_p. The first query_frac of samples (before a
    final seeded shuffle of row order) become queries, the rest are
    tagged gallery+train.
    """
    if C < 1:
        raise ConfigurationError(f"need at least one class, got C={C}")
    if D < C:
        raise ConfigurationError(f"need D >= C, got D={D}, C={C}")
    if not 0.0 <= multilabel_p < 1.0:
        raise ConfigurationError(
            f"multilabel_p must lie in [0, 1), got {multilabel_p}"
        )
    if multilabel_p > 0.0 and C < 2:
        raise ConfigurationError("second labels need at least two classes")
    if not 0.0 <= query_frac < 1.0:
        raise ConfigurationError(
            f"query_frac must lie in [0, 1), got {query_frac}"
        )
    if N < C:
        raise ConfigurationError(f"need N >= C for class coverage, got N={N}")
    if not np.isfinite(B_separation):
        raise ConfigurationError(
            f"B_separation must be finite, got {B_separation}"
        )
    rng = np.random.default_rng(check_seed(seed))
    protos = rng.standard_normal((C, D))
    protos *= B_separation / np.linalg.norm(protos, axis=1, keepdims=True)
    base = np.arange(N, dtype=np.int64) % C
    second_mask = rng.random(N) < multilabel_p
    offsets = rng.integers(1, max(C, 2), size=N, dtype=np.int64)
    second = (base + offsets) % C
    means = protos[base].copy()
    means[second_mask] = (protos[base] + protos[second])[second_mask] / 2.0
    features = means + rng.standard_normal((N, D))
    labels = np.zeros((N, C))
    labels[np.arange(N), base] = 1.0
    labels[second_mask, second[second_mask]] = 1.0
    tags = np.full(N, SPLIT_ROLES["gallery+train"], dtype=np.uint8)
    tags[:int(round(query_frac * N))] = SPLIT_ROLES["query"]
    perm = rng.permutation(N)
    return Dataset(
        features=features[perm], labels=labels[perm], tags=tags[perm]
    )
