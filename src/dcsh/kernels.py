"""Hamming distance over packed 64-bit words, counted with np.bitwise_count."""

import numpy as np


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
