"""Hamming retrieval over packed codes and the MAP / precision-recall metrics.

A `PackedCodeIndex` holds the gallery in the word layout of `kernels`,
which also packs each query and scans the gallery linearly with its
popcount kernel, one cache-sized block at a time. Its `distances`, one
codeword against every row, is the only Hamming distance this module
offers. The gallery keeps its file order. Rankings order by distance,
then ascending id, so every result is deterministic regardless of
storage order: `_rank` bisects [0, B] for the k-th smallest distance t,
counting rows with d <= t in each step, then sorts only the rows within
t, cutting a large tie block at t down to k rows.
A gallery sample is relevant to a query when it carries one of the
query's classes (`relevance_mask`, which checks the query's label set
with `data.label_classes`); the same-class rule only adds that every
label set, the query's included, holds exactly one class. A query
with one class the gallery knows gets that class's column of the label
table as a read-only view, with no copy. `pr_curve` takes a query's
retrieved and relevant counts at every threshold from one `bincount`,
keyed by distance and shifted by B + 1 for relevant rows.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import label_classes, label_incidence
from .errors import ConfigurationError, DimensionError, LabelError
# unpack_codes is unused here; perfbench/step.py calls retrieval.unpack_codes.
from .kernels import pack_codes, unpack_codes

SAME_CLASS = "same-class"
SHARE_ANY = "share-any-label"
RELEVANCE_RULES = (SAME_CLASS, SHARE_ANY)


def _as_bits(code):
    """A 1-D array of the query's entries; `pack_codes` checks they are 0/1."""
    if isinstance(code, str):
        code = np.frombuffer(code.encode(errors="replace"), np.uint8) - ord("0")
        if (code > 1).any():
            raise DimensionError("query string must be 0/1 characters")
    A = np.asarray(code)
    if A.ndim != 1 or A.shape[0] < 1:
        raise DimensionError("query must be a non-empty bit vector")
    return A


class PackedCodeIndex:
    """Immutable gallery of packed codes with unique ids and optional
    labels, rows in the order given; `incidence` is the label table up to
    the largest class, `single_label` says each row has one."""

    def __init__(self, words, B, ids, labels=None):
        self.B = int(B)
        # Views, so the read-only flag set below stays off the caller's arrays.
        self.words = kernels.check_words(words, self.B).view()
        self.ids = np.asarray(ids, dtype=np.int64).view()
        if self.ids.ndim != 1 or self.ids.shape[0] != self.words.shape[0]:
            raise DimensionError("ids must align with code rows")
        by_id = np.sort(self.ids, kind="stable")  # linear on ids in order
        if np.any(by_id[1:] == by_id[:-1]):
            raise ConfigurationError("gallery ids must be unique")
        self.incidence = self.single_label = None
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != self.words.shape[0]:
                raise DimensionError("labels must align with code rows")
            self.incidence = label_incidence(labels)
            self.incidence.setflags(write=False)
            self.single_label = bool((self.incidence.sum(axis=1) == 1).all())
        self.labels = labels
        self.words.setflags(write=False)
        self.ids.setflags(write=False)

    @classmethod
    def from_bits(cls, bits, ids, labels=None):
        A = np.asarray(bits)
        return cls(pack_codes(A), A.shape[1], ids, labels)

    @property
    def N(self):
        return self.words.shape[0]

    def distances(self, code):
        """Hamming distance from one codeword, a `0`/`1` string or a bit
        vector, to every indexed sample."""
        q = _as_bits(code)
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
    """Rows of the k nearest samples, by distance, then ascending id.

    Bisection over [0, B] finds t, the k-th smallest distance (B when
    k > N), in at most ceil(log2(B + 1)) counting passes. Only the rows
    with d <= t are sorted; when they exceed k by more than 512, the
    rows tied at t are first cut to the smallest ids that fill k, so a
    gallery where most rows tie at t sorts k rows, not all of them.
    """
    lo, hi = 0, index.B
    while lo < hi:
        mid = (lo + hi) // 2
        if np.count_nonzero(dists <= mid) >= k:
            hi = mid
        else:
            lo = mid + 1
    rows = np.flatnonzero(dists <= lo)
    # Trimming costs about as much as sorting 512 more rows (2-core
    # host, numpy 2.4), so it pays only past that many rows beyond k.
    if rows.size > k + 512:
        d = dists[rows]
        tied = rows[d == lo]
        need = k - (rows.size - tied.size)
        tied = tied[np.argpartition(index.ids[tied], need - 1)[:need]]
        rows = np.concatenate((rows[d < lo], tied))
    return rows[np.lexsort((index.ids[rows], dists[rows]))[:k]]


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
    query_labels = label_classes(query_labels)
    single = len(query_labels) == 1 and gallery.single_label
    if rule == SAME_CLASS and not single:
        raise LabelError("same-class rule requires single-label data")
    C = gallery.incidence.shape[1]
    cols = [c for c in query_labels if c < C]
    if len(cols) == 1:  # a contiguous, read-only column: no copy
        return gallery.incidence[:, cols[0]]
    return gallery.incidence[:, cols].any(axis=1)


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
        aps[i] = average_precision(hits, np.count_nonzero(rel_mask))
    return MapResult(map=float(aps.mean()), query_ids=queries.ids.copy(), aps=aps)


def pr_curve(queries, gallery, rule):
    """Macro-averaged precision and recall at every Hamming threshold.

    Thresholds run 0..B inclusive; a query retrieving nothing at a
    threshold contributes precision 1 there. Queries with no relevant
    gallery samples are skipped.
    """
    _check_queries(queries, gallery)
    B = gallery.B
    # Relevant rows are keyed at distance + B + 1, so one bincount gives
    # the other rows' histogram below B + 1 and the relevant rows' above.
    kind = np.min_scalar_type(2 * B + 1)
    offset = kind.type(B + 1)
    thresholds = np.arange(B + 1, dtype=np.int64)
    precision_sum = np.zeros(B + 1, dtype=np.float64)
    recall_sum = np.zeros(B + 1, dtype=np.float64)
    counted = 0
    for dists, rel_mask in _scored(queries, gallery, rule):
        R_total = np.count_nonzero(rel_mask)
        if R_total == 0:
            continue
        key = np.add(dists, rel_mask.view(np.uint8) * offset, dtype=kind)
        counts = np.bincount(key, minlength=2 * (B + 1))
        hits = np.cumsum(counts[B + 1:])
        retrieved = np.cumsum(counts[:B + 1]) + hits
        precision = np.where(retrieved > 0, hits / np.maximum(retrieved, 1), 1.0)
        precision_sum += precision
        recall_sum += hits / R_total
        counted += 1
    if counted == 0:
        raise ConfigurationError("no query has a relevant gallery sample")
    return thresholds, recall_sum / counted, precision_sum / counted
