"""Packed codes and the one Hamming distance over them: a B-bit code is
ceil(B/64) uint64 words, bit j at bit (j mod 64) of word (j div 64), and
the unused high bits are zero."""

import numpy as np

from .errors import DimensionError

# Gallery words per block of the scan: 512 KiB, so the XOR of a block
# is still in cache when it is popcounted. Scanning 10^6 one-word codes
# through a single 8 MB XOR took 2.5-3.2 ms against 1.3-2.0 ms in blocks
# (2-core host, numpy 2.4).
SCAN_BLOCK_WORDS = 65_536


def word_count(B):
    """Number of 64-bit words that hold a B-bit code."""
    return (B + 63) // 64


def check_words(words, B):
    """`words` as a C-contiguous N x word_count(B) uint64 matrix, after
    checking that B >= 1 and that the unused high bits are zero."""
    W = np.ascontiguousarray(words, dtype=np.uint64)
    if B < 1 or W.ndim != 2 or W.shape[1] != word_count(B):
        raise DimensionError(f"words of shape {W.shape} do not hold B={B} bits")
    if B % 64 and np.any(W[:, -1] >> np.uint64(B % 64)):
        raise DimensionError("unused high bits must be zero")
    return W


def pack_codes(bits):
    """Pack an N x B matrix of 0/1 into N x ceil(B/64) uint64 words."""
    A = np.asarray(bits)
    if A.ndim != 2 or A.shape[1] < 1:
        raise DimensionError(f"expected N x B bit matrix, got shape {A.shape}")
    # Bool and unsigned entries are never below 0, so their max bounds them.
    if not (A.max(initial=0) <= 1 if A.dtype.kind in "bu"
            else ((A == 0) | (A == 1)).all()):
        raise DimensionError("code bits must be 0 or 1")
    by = np.packbits(A.astype(np.uint8, copy=False), axis=1, bitorder="little")
    padded = np.zeros((A.shape[0], word_count(A.shape[1]) * 8), dtype=np.uint8)
    padded[:, : by.shape[1]] = by
    return padded.view("<u8")


def unpack_codes(words, B):
    """Inverse of pack_codes for W = ceil(B/64) words per row."""
    Wd = check_words(words, B)
    by = Wd.view(np.uint8).reshape(Wd.shape[0], 8 * Wd.shape[1])
    return np.unpackbits(by, axis=1, count=B, bitorder="little")


def _count_rows(xor, out):
    """Set bits in each row of an (n, W) uint64 block, into `out`: word
    column 0 is counted, then each further column's count added."""
    np.bitwise_count(xor[:, 0], out=out)
    for w in range(1, xor.shape[1]):
        out += np.bitwise_count(xor[:, w])
    return out


def scan_distances(gallery_words, query_words):
    """Hamming distances from one packed query to every gallery row.

    gallery: (N, W) uint64, query: (W,) uint64 -> (N,) distances of the
    smallest unsigned type that holds 64 * W, so the ranking's counting
    passes read one byte per row up to 192 bits. A gallery of more than
    SCAN_BLOCK_WORDS words is scanned in blocks of at most that many,
    each XORed into one buffer and popcounted while it is still in cache.
    """
    gallery = np.ascontiguousarray(gallery_words, dtype=np.uint64)
    query = np.ascontiguousarray(query_words, dtype=np.uint64)
    if gallery.ndim != 2 or query.ndim != 1:
        raise ValueError("expected (N, W) gallery and (W,) query")
    N, W = gallery.shape
    if W != query.shape[0]:
        raise ValueError(f"word counts differ: {W} vs {query.shape[0]}")
    out = np.empty(N, dtype=np.min_scalar_type(64 * W))
    step = max(1, SCAN_BLOCK_WORDS // W)  # rows per block
    if N <= step:
        return _count_rows(np.bitwise_xor(gallery, query), out)
    xor = np.empty((step, W), dtype=np.uint64)
    for start in range(0, N, step):
        block = gallery[start:start + step]
        _count_rows(np.bitwise_xor(block, query, out=xor[:block.shape[0]]),
                    out[start:start + step])
    return out
