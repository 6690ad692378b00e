"""Hash-center codebooks: generation, per-sample target assignment,
and the per-epoch weighted-mean-and-threshold update.

Centers are C binary codewords of B bits, versioned by an epoch index.
At epoch 0 they come from a Hadamard construction (pairwise distance
exactly B/2) or from best-of-trials Bernoulli sampling; afterwards each
class center is recomputed from the network's hash outputs.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    ConfigurationError,
    CoverageError,
    DimensionError,
    LabelError,
)


@dataclass(frozen=True)
class LabelSet:
    """Non-empty set of class indices attached to one sample."""

    classes: tuple

    def __init__(self, classes):
        items = tuple(sorted(int(c) for c in classes))
        if not items:
            raise LabelError("label set is empty")
        if len(set(items)) != len(items):
            raise LabelError(f"duplicate class indices in {items}")
        if items[0] < 0:
            raise LabelError(f"negative class index in {items}")
        object.__setattr__(self, "classes", items)

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __contains__(self, c):
        return c in self.classes


def label_incidence(labels, C):
    """Label sets -> N x C boolean table, True where a sample carries a
    class; column-major, so one class is one contiguous column."""
    sets = [l if isinstance(l, LabelSet) else LabelSet(l) for l in labels]
    classes = np.fromiter(chain.from_iterable(sets), dtype=np.int64)
    rows = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    out = np.flatnonzero(classes >= C)
    if out.size:
        n = int(rows[out[0]])
        raise LabelError(f"sample {n} has class index {sets[n].classes[-1]} >= C={C}")
    table = np.zeros((C, len(sets)), dtype=bool).T
    table[rows, classes] = True
    return table


@dataclass(frozen=True)
class HashCenterSet:
    """C codewords of B bits each, stamped with the epoch that made them."""

    codes: np.ndarray
    epoch: int = 0

    def __post_init__(self):
        raw = np.asarray(self.codes)
        if raw.ndim != 2:
            raise DimensionError(f"centers must be 2-D, got ndim={raw.ndim}")
        if raw.shape[0] < 1 or raw.shape[1] < 1:
            raise DimensionError(f"empty center set of shape {raw.shape}")
        if not ((raw == 0) | (raw == 1)).all():
            raise DimensionError("center bits must be 0 or 1")
        A = np.ascontiguousarray(raw, dtype=np.uint8)
        A.setflags(write=False)
        object.__setattr__(self, "codes", A)
        if self.epoch < 0:
            raise ConfigurationError(f"negative epoch {self.epoch}")

    @property
    def C(self):
        return self.codes.shape[0]

    @property
    def B(self):
        return self.codes.shape[1]


def gen_hadamard_centers(B, C):
    """First C rows of the B x B Sylvester Hadamard matrix, +1 -> 1, -1 -> 0.

    Any two of the resulting codewords differ in exactly B/2 bits.
    """
    if B < 1 or (B & (B - 1)) != 0:
        raise ConfigurationError(
            f"B={B} is not a power of 2; use the Bernoulli generator"
        )
    if C > B:
        raise ConfigurationError(
            f"Hadamard construction caps classes at B: C={C} > B={B}"
        )
    if C < 1:
        raise ConfigurationError(f"need at least one class, got C={C}")
    H = np.ones((1, 1), dtype=np.int64)
    while H.shape[0] < B:
        H = np.block([[H, H], [H, -H]])
    return HashCenterSet(codes=(H[:C] > 0).astype(np.uint8), epoch=0)


def gen_bernoulli_centers(B, C, seed, trials=100):
    """Best of `trials` i.i.d. Bern(0.5) codeword sets by minimum
    pairwise Hamming distance; ties keep the earliest trial."""
    if B < 1 or C < 1 or trials < 1:
        raise ConfigurationError(
            f"need B >= 1, C >= 1, trials >= 1, got B={B}, C={C}, trials={trials}"
        )
    rng = np.random.default_rng(seed)
    best = None
    best_dist = -1
    for _ in range(trials):
        codes = rng.integers(0, 2, size=(C, B), dtype=np.uint8)
        if C == 1:
            return HashCenterSet(codes=codes, epoch=0)
        min_dist = _min_distance(codes)
        if min_dist > best_dist:
            best, best_dist = codes, min_dist
    return HashCenterSet(codes=best, epoch=0)


def _min_distance(codes):
    diff = codes[:, None, :] != codes[None, :, :]
    dist = diff.sum(axis=2)
    return int(dist[np.triu_indices(codes.shape[0], k=1)].min())


def min_pairwise_distance(centers):
    """Smallest Hamming distance over all codeword pairs."""
    if centers.C < 2:
        raise ConfigurationError("need at least two codewords")
    return _min_distance(centers.codes)


def assign_target(labels, centers, seed):
    """Target codeword for one sample.

    A single label passes its class center through verbatim. Multiple
    labels take a bitwise majority vote over the involved centers; a
    tied bit is resolved by a Bern(0.5) draw keyed on the seed, the
    sorted label tuple, and the bit index, so the resolution is stable
    for a given sample across epochs.
    """
    if not isinstance(labels, LabelSet):
        labels = LabelSet(labels)
    if labels.classes[-1] >= centers.C:
        raise LabelError(
            f"class index {labels.classes[-1]} out of range for C={centers.C}"
        )
    rows = centers.codes[list(labels.classes), :]
    if len(labels) == 1:
        return rows[0].copy()
    votes = rows.sum(axis=0, dtype=np.int64)
    n = len(labels)
    target = (2 * votes > n).astype(np.uint8)
    tied = 2 * votes == n
    if tied.any():
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), *labels.classes])
        )
        draws = rng.integers(0, 2, size=centers.B, dtype=np.uint8)
        target[tied] = draws[tied]
    return target


def update_centers(hashes, labels, C, epoch=0):
    """Recompute every class center from a full-pass matrix of hash outputs.

    Each row of `hashes` is mapped to [-1, 1] via f(x) = 2x - 1 and
    contributes with weight 1/|l_n| to every class in its label set.
    The paper takes the class mean of those terms and thresholds it at
    0, with 0 itself mapping to 1. Dividing by a positive count cannot
    change a sign, so only the sign of the 1/|l_n|-weighted sum matters,
    whatever the divisor: the group size |G_c| or the weight sum.
    """
    H = np.asarray(hashes, dtype=np.float64)
    if H.ndim != 2:
        raise DimensionError(f"hashes must be 2-D, got ndim={H.ndim}")
    if H.shape[0] != len(labels):
        raise DimensionError(
            f"{H.shape[0]} hash rows vs {len(labels)} label sets"
        )
    if not np.all(np.isfinite(H)):
        raise DimensionError("hashes contain non-finite entries")
    Y = label_incidence(labels, C).astype(np.float64, order="C")
    missing = np.flatnonzero(~Y.any(axis=0))
    if missing.size:
        raise CoverageError(f"class {missing[0]} has no samples")
    W = Y / Y.sum(axis=1, keepdims=True)
    sums = W.T @ (2.0 * H - 1.0)
    return HashCenterSet(codes=(sums >= 0.0).astype(np.uint8), epoch=epoch)
