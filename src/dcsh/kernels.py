"""Packed codes and the one Hamming distance over them: a B-bit code is
ceil(B/64) uint64 words, bit j at bit (j mod 64) of word (j div 64), and
the unused high bits are zero."""

import numpy as np

from .errors import DimensionError


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


def scan_distances(gallery_words, query_words):
    """Hamming distances from one packed query to every gallery row.

    gallery: (N, W) uint64, query: (W,) uint64 -> (N,) distances of the
    smallest unsigned type that holds 64 * W, so the ranking's counting
    passes read one byte per row up to 192 bits.
    """
    gallery = np.ascontiguousarray(gallery_words, dtype=np.uint64)
    query = np.ascontiguousarray(query_words, dtype=np.uint64)
    if gallery.ndim != 2 or query.ndim != 1:
        raise ValueError("expected (N, W) gallery and (W,) query")
    if gallery.shape[1] != query.shape[0]:
        raise ValueError(
            f"word counts differ: {gallery.shape[1]} vs {query.shape[0]}"
        )
    return np.bitwise_count(np.bitwise_xor(gallery, query[None, :])).sum(
        axis=-1, dtype=np.min_scalar_type(64 * gallery.shape[1])
    )
