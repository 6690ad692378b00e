"""Bit-packed Hamming retrieval and the MAP / precision-recall metrics.

Gallery codes are packed into ceil(B/64) 64-bit words per sample, bit j
at bit (j mod 64) of word (j div 64), and scanned linearly with a
popcount kernel. Rankings order by distance, then ascending id, so
every result is deterministic regardless of storage order (`_rank`).
A gallery sample is relevant to a query when it carries one of the
query's classes (`relevance_mask`); the same-class rule only adds that
every label set, the query's included, holds exactly one class.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .centers import LabelSet, label_incidence
from .errors import ConfigurationError, DimensionError, LabelError

SAME_CLASS = "same-class"
SHARE_ANY = "share-any-label"
RELEVANCE_RULES = (SAME_CLASS, SHARE_ANY)


def _as_bits(code, name="code"):
    if isinstance(code, str):
        if set(code) - {"0", "1"}:
            raise DimensionError(f"{name} string must be 0/1 characters")
        code = [int(ch) for ch in code]
    A = np.asarray(code)
    if A.ndim != 1 or A.shape[0] < 1:
        raise DimensionError(f"{name} must be a non-empty bit vector")
    if not ((A == 0) | (A == 1)).all():
        raise DimensionError(f"{name} entries must be 0 or 1")
    return A.astype(np.uint8)


def pack_codes(bits):
    """Pack an N x B matrix of 0/1 into N x ceil(B/64) uint64 words."""
    A = np.asarray(bits)
    if A.ndim != 2 or A.shape[1] < 1:
        raise DimensionError(f"expected N x B bit matrix, got shape {A.shape}")
    if not ((A == 0) | (A == 1)).all():
        raise DimensionError("code bits must be 0 or 1")
    A = np.ascontiguousarray(A, dtype=np.uint8)
    n_words = (A.shape[1] + 63) // 64
    by = np.packbits(A, axis=1, bitorder="little")
    padded = np.zeros((A.shape[0], n_words * 8), dtype=np.uint8)
    padded[:, : by.shape[1]] = by
    return padded.view("<u8")


def unpack_codes(words, B):
    """Inverse of pack_codes for W = ceil(B/64) words per row."""
    Wd = np.ascontiguousarray(words, dtype=np.uint64)
    if Wd.ndim != 2:
        raise DimensionError(f"expected N x W word matrix, got shape {Wd.shape}")
    if Wd.shape[1] != (B + 63) // 64:
        raise DimensionError(
            f"{Wd.shape[1]} words cannot hold B={B} bits"
        )
    by = Wd.view("<u8").view(np.uint8).reshape(Wd.shape[0], -1)
    bits = np.unpackbits(by, axis=1, bitorder="little")
    return bits[:, :B].copy()


def hamming(a, b):
    """Number of differing bits between two codewords of equal length."""
    A = _as_bits(a, "a")
    Bv = _as_bits(b, "b")
    if A.shape[0] != Bv.shape[0]:
        raise DimensionError(
            f"codeword lengths differ: {A.shape[0]} vs {Bv.shape[0]}"
        )
    return int(np.count_nonzero(A != Bv))


class PackedCodeIndex:
    """Immutable gallery of packed codes with ids and optional labels;
    `id_order` lists the rows by ascending id, `incidence` is the label
    table up to the largest class, `single_label` says each row has one."""

    def __init__(self, words, B, ids, labels=None):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)
        if self.words.ndim != 2:
            raise DimensionError("words must be an N x W matrix")
        self.B = int(B)
        if self.B < 1 or self.words.shape[1] != (self.B + 63) // 64:
            raise DimensionError(
                f"word count {self.words.shape[1]} does not match B={self.B}"
            )
        tail = self.B % 64
        if tail and self.words.shape[0]:
            mask = np.uint64((1 << tail) - 1)
            if np.any(self.words[:, -1] & ~mask):
                raise DimensionError("unused high bits must be zero")
        self.ids = np.asarray(ids, dtype=np.int64)
        if self.ids.ndim != 1 or self.ids.shape[0] != self.words.shape[0]:
            raise DimensionError("ids must align with code rows")
        self.id_order = np.argsort(self.ids, kind="stable")
        by_id = self.ids[self.id_order]
        if np.any(by_id[1:] == by_id[:-1]):
            raise ConfigurationError("gallery ids must be unique")
        self.incidence = self.single_label = None
        if labels is not None:
            labels = tuple(
                l if isinstance(l, LabelSet) else LabelSet(l) for l in labels
            )
            if len(labels) != self.words.shape[0]:
                raise DimensionError("labels must align with code rows")
            C = 1 + max((l.classes[-1] for l in labels), default=-1)
            self.incidence = label_incidence(labels, C)
            self.incidence.setflags(write=False)
            self.single_label = all(len(l) == 1 for l in labels)
        self.labels = labels
        self.words.setflags(write=False)
        self.ids.setflags(write=False)
        self.id_order.setflags(write=False)

    @classmethod
    def from_bits(cls, bits, ids, labels=None):
        A = np.asarray(bits)
        return cls(pack_codes(A), A.shape[1], ids, labels)

    @property
    def N(self):
        return self.words.shape[0]

    def distances(self, code):
        """Hamming distance from one codeword to every indexed sample."""
        q = _as_bits(code, "query")
        if q.shape[0] != self.B:
            raise DimensionError(
                f"query has {q.shape[0]} bits, index holds {self.B}"
            )
        return kernels.scan_distances(self.words, pack_codes(q[None, :])[0])


@dataclass(frozen=True)
class QueryResult:
    """Top-k ranking: parallel id/distance arrays, clipped when k > N."""

    ids: np.ndarray
    distances: np.ndarray
    clipped: bool


def _rank(index, dists, k):
    """Rows of the k nearest samples, by distance, then ascending id: a
    stable sort of the distances taken in id order."""
    return index.id_order[np.argsort(dists[index.id_order], kind="stable")[:k]]


def query_topk(index, code, k):
    """The k indexed samples nearest to `code`, ties by ascending id."""
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    dists = index.distances(code)
    order = _rank(index, dists, k)
    return QueryResult(
        ids=index.ids[order], distances=dists[order].astype(np.int64),
        clipped=k > index.N,
    )


def average_precision(relevance, R_total):
    """AP over a ranked relevance vector, denominator min(R_total, k)."""
    rel = np.asarray(relevance, dtype=np.float64)
    if rel.ndim != 1 or rel.shape[0] < 1:
        raise DimensionError("relevance must be a non-empty vector")
    if not ((rel == 0) | (rel == 1)).all():
        raise DimensionError("relevance entries must be 0 or 1")
    if R_total < 0:
        raise ConfigurationError(f"R_total must be >= 0, got {R_total}")
    denom = min(int(R_total), rel.shape[0])
    if denom == 0:
        return 0.0
    precision = np.cumsum(rel) / np.arange(1, rel.shape[0] + 1)
    return float((precision * rel).sum() / denom)


def _require_labels(index, name):
    if index.labels is None:
        raise ConfigurationError(f"{name} index carries no labels")


def relevance_mask(query_labels, gallery, rule):
    """Boolean relevance of every gallery sample to one query."""
    if rule not in RELEVANCE_RULES:
        raise ConfigurationError(
            f"unknown relevance rule {rule!r}, expected one of {RELEVANCE_RULES}"
        )
    _require_labels(gallery, "gallery")
    query_labels = LabelSet(query_labels)
    single = len(query_labels) == 1 and gallery.single_label
    if rule == SAME_CLASS and not single:
        raise LabelError("same-class rule requires single-label data")
    C = gallery.incidence.shape[1]
    return gallery.incidence[:, [c for c in query_labels if c < C]].any(axis=1)


@dataclass(frozen=True)
class MapResult:
    """Mean AP plus the per-query values it averages."""

    map: float
    query_ids: np.ndarray
    aps: np.ndarray


def _check_queries(queries, gallery):
    _require_labels(queries, "query")
    if queries.N == 0:
        raise ConfigurationError("query set is empty")
    if queries.B != gallery.B:
        raise DimensionError(
            f"queries have {queries.B} bits, gallery holds {gallery.B}"
        )


def _scored(queries, gallery, rule):
    """(distances, relevance) of every gallery sample, one query at a time."""
    for i in range(queries.N):
        rel_mask = relevance_mask(queries.labels[i], gallery, rule)
        yield kernels.scan_distances(gallery.words, queries.words[i]), rel_mask


def map_at_k(queries, gallery, k, rule):
    """Mean average precision at k of every query against the gallery."""
    _check_queries(queries, gallery)
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    aps = np.empty(queries.N, dtype=np.float64)
    for i, (dists, rel_mask) in enumerate(_scored(queries, gallery, rule)):
        hits = rel_mask[_rank(gallery, dists, k)].astype(np.uint8)
        aps[i] = average_precision(hits, int(rel_mask.sum()))
    return MapResult(map=float(aps.mean()), query_ids=queries.ids.copy(), aps=aps)


def pr_curve(queries, gallery, rule):
    """Macro-averaged precision and recall at every Hamming threshold.

    Thresholds run 0..B inclusive; a query retrieving nothing at a
    threshold contributes precision 1 there. Queries with no relevant
    gallery samples are skipped.
    """
    _check_queries(queries, gallery)
    B = gallery.B
    thresholds = np.arange(B + 1, dtype=np.int64)
    precision_sum = np.zeros(B + 1, dtype=np.float64)
    recall_sum = np.zeros(B + 1, dtype=np.float64)
    counted = 0
    for dists, rel_mask in _scored(queries, gallery, rule):
        R_total = int(rel_mask.sum())
        if R_total == 0:
            continue
        retrieved = np.cumsum(np.bincount(dists, minlength=B + 1))
        hits = np.cumsum(np.bincount(dists[rel_mask], minlength=B + 1))
        precision = np.where(retrieved > 0, hits / np.maximum(retrieved, 1), 1.0)
        precision_sum += precision
        recall_sum += hits / R_total
        counted += 1
    if counted == 0:
        raise ConfigurationError("no query has a relevant gallery sample")
    return thresholds, recall_sum / counted, precision_sum / counted
