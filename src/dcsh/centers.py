"""Hash-center codebooks: generation, per-sample target assignment,
and the per-epoch weighted-mean-and-threshold update.

Centers are C binary codewords of B bits, versioned by an epoch index.
At epoch 0 they come from a Hadamard construction (pairwise distance
exactly B/2) or from best-of-trials Bernoulli sampling; afterwards each
class center is recomputed from the network's hash outputs.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import check_label_table, label_classes
from .errors import ConfigurationError, CoverageError, DimensionError
from .numerics import check_seed

# Candidate sets drawn by `gen_bernoulli_centers`.
BERNOULLI_TRIALS = 100


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
        # A view, so the caller's array stays writeable.
        A = np.ascontiguousarray(raw, dtype=np.uint8).view()
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


def gen_bernoulli_centers(B, C, seed):
    """Best of BERNOULLI_TRIALS i.i.d. Bern(0.5) codeword sets by minimum
    pairwise Hamming distance; ties keep the earliest trial."""
    if B < 1 or C < 1:
        raise ConfigurationError(f"need B >= 1 and C >= 1, got B={B}, C={C}")
    rng = np.random.default_rng(check_seed(seed))
    best = None
    best_dist = -1
    for _ in range(BERNOULLI_TRIALS):
        codes = HashCenterSet(rng.integers(0, 2, size=(C, B), dtype=np.uint8))
        if C == 1:
            return codes
        min_dist = min_pairwise_distance(codes)
        if min_dist > best_dist:
            best, best_dist = codes, min_dist
    return best


def min_pairwise_distance(centers):
    """Smallest Hamming distance, the popcount of the XOR, over all pairs.
    Blocks of SCAN_BLOCK_WORDS // (C * W) rows are XORed against every
    row after the block's first, so only one block's XOR is held."""
    if centers.C < 2:
        raise ConfigurationError("need at least two codewords")
    words = kernels.pack_codes(centers.codes)
    zero = np.zeros(words.shape[1], dtype=np.uint64)
    step = max(1, kernels.SCAN_BLOCK_WORDS // words.size)
    best = centers.B
    for lo in range(0, centers.C - 1, step):
        xor = words[lo:lo + step, None] ^ words[None, lo + 1:]
        d = kernels.scan_distances(xor.reshape(-1, words.shape[1]), zero)
        d = d.reshape(xor.shape[:2])
        # Row r is i = lo + r and column k is j = lo + 1 + k: mask j <= i.
        d[np.tri(*d.shape, k=-1, dtype=bool)] = centers.B
        best = min(best, int(d.min()))
    return best


def assign_target(labels, centers, seed):
    """Target codeword for one sample's label set (`data.label_classes`).

    A single label passes its class center through verbatim. Multiple
    labels take a bitwise majority vote over the involved centers; a
    tied bit is resolved by a Bern(0.5) draw keyed on the seed, the
    sorted label tuple, and the bit index, so the resolution is stable
    for a given sample across epochs.
    """
    classes = label_classes(labels, centers.C)
    rows = centers.codes[list(classes), :]
    n = len(classes)
    if n == 1:
        return rows[0].copy()
    votes = rows.sum(axis=0, dtype=np.int64)
    target = (2 * votes > n).astype(np.uint8)
    tied = 2 * votes == n
    if tied.any():
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), *classes])
        )
        draws = rng.integers(0, 2, size=centers.B, dtype=np.uint8)
        target[tied] = draws[tied]
    return target


def update_centers(hashes, Y, epoch=0):
    """Recompute every class center from a full-pass matrix of hash outputs.

    `Y` is the N x C 0/1 label table (`multi_hot`), one row per hash
    row. Each row of `hashes` is mapped to [-1, 1] via f(x) = 2x - 1 and
    contributes with weight 1/|l_n| to every class in its label set.
    The paper takes the class mean of those terms and thresholds it at
    0, with 0 itself mapping to 1. Dividing by a positive count cannot
    change a sign, so only the sign of the 1/|l_n|-weighted sum matters,
    whatever the divisor: the group size |G_c| or the weight sum.
    """
    H = np.asarray(hashes, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if H.ndim != 2 or Y.ndim != 2 or H.shape[0] != Y.shape[0]:
        raise DimensionError(
            f"need 2-D hashes and label table with equal rows, got "
            f"{H.shape} and {Y.shape}"
        )
    if not np.all(np.isfinite(H)):
        raise DimensionError("hashes contain non-finite entries")
    check_label_table(Y)
    missing = np.flatnonzero(~Y.any(axis=0))
    if missing.size:
        raise CoverageError(f"class {missing[0]} has no samples")
    W = Y / Y.sum(axis=1, keepdims=True)
    sums = W.T @ (2.0 * H - 1.0)
    return HashCenterSet(codes=(sums >= 0.0).astype(np.uint8), epoch=epoch)
