"""Correctness oracles computed apart from the program.

Nothing here imports dcsh. Each oracle is the slow, obvious version of
what the program computes: distances from unpacked bits, rankings by
(distance, id), AP with the min(R, k) denominator written as a loop,
and PR counts by counting codes within each threshold. The code
decoders follow the layouts in the README's file-format table.
"""

import struct

import numpy as np

CODE_MAGIC = b"DCSHCODE"
FORMAT_VERSION = 1
ROW_BLOCK = 1 << 17


def loss_lower_bound(B, C):
    """Closed-form bound of the combined loss: -(min(B, C) - 1) - (B - 1)."""
    return -(min(B, C) - 1) - (B - 1)


# ----------------------------------------------------------------- decoders

def parse_text_codes(text):
    """`<id>\\t<bits>` lines -> (ids int64, bits N x B uint8)."""
    ids, rows = [], []
    for line in text.splitlines():
        ident, tab, code = line.partition("\t")
        if tab != "\t" or not code or set(code) - {"0", "1"}:
            raise ValueError(f"bad code line {line!r}")
        ids.append(int(ident))
        rows.append(code)
    if len({len(r) for r in rows}) != 1:
        raise ValueError("code lines differ in length")
    bits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return np.array(ids, dtype=np.int64), (bits - ord("0")).reshape(len(rows), -1)


def read_text_codes(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_text_codes(fh.read())


def unpack_words(words, B):
    """Bit j of a code sits at bit (j mod 64) of word (j div 64)."""
    bits = np.zeros((words.shape[0], B), dtype=np.uint8)
    for j in range(B):
        bits[:, j] = (words[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)
    return bits


def pack_bits(bits):
    """Inverse of unpack_words; unused high bits stay zero."""
    N, B = bits.shape
    words = np.zeros((N, (B + 63) // 64), dtype=np.uint64)
    for j in range(B):
        words[:, j // 64] |= bits[:, j].astype(np.uint64) << np.uint64(j % 64)
    return words


def parse_packed_codes(blob):
    """`DCSHCODE`, u32 version, u64 N, u32 B, then N x ceil(B/64) LE u64
    -> bits N x B uint8. Rejects set bits above B."""
    if blob[:8] != CODE_MAGIC:
        raise ValueError("bad magic")
    version, N, B = struct.unpack_from("<IQI", blob, 8)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported version {version}")
    W = (B + 63) // 64
    payload = blob[24:]
    if len(payload) != N * W * 8:
        raise ValueError("payload size does not match N and B")
    words = np.frombuffer(payload, dtype="<u8").reshape(N, W).astype(np.uint64)
    if not np.array_equal(pack_bits(unpack_words(words, B)), words):
        raise ValueError("set bits above B")
    return unpack_words(words, B)


def read_packed_codes(path):
    with open(path, "rb") as fh:
        return parse_packed_codes(fh.read())


# ---------------------------------------------------------------- retrieval

def hamming_matrix(query_bits, gallery_bits):
    """(Q, N) Hamming distances from unpacked bits.

    With bits mapped to +-1, the dot product of two codes is B - 2d; in
    float32 it is exact for any B below 2**24.
    """
    B = gallery_bits.shape[1]
    q = 2.0 * query_bits.astype(np.float32) - 1.0
    out = np.empty((query_bits.shape[0], gallery_bits.shape[0]), dtype=np.int32)
    for start in range(0, gallery_bits.shape[0], ROW_BLOCK):
        g = 2.0 * gallery_bits[start:start + ROW_BLOCK].astype(np.float32) - 1.0
        dots = np.rint(q @ g.T).astype(np.int32)
        out[:, start:start + g.shape[0]] = (B - dots) // 2
    return out


def topk(distances, ids, k):
    """Positions of the k nearest rows, ordered by distance, then by
    ascending id."""
    k = min(k, distances.shape[0])
    key = distances.astype(np.int64) * (int(ids.max()) + 1) + ids
    part = np.argpartition(key, k - 1)[:k]
    return part[np.argsort(key[part])]


def _single(labels):
    if isinstance(labels, np.ndarray):
        return labels
    if any(len(ls) != 1 for ls in labels):
        raise ValueError("same-class needs single labels")
    return np.array([ls[0] for ls in labels])


def relevance(query_labels, gallery_labels, rule):
    """(Q, N) bool: same-class compares single labels, share-any-label
    asks for a common class. Labels are tuples of class indices; for
    same-class an int array of the single labels also works."""
    if rule == "same-class":
        return _single(query_labels)[:, None] == _single(gallery_labels)[None, :]
    if rule != "share-any-label":
        raise ValueError(f"unknown rule {rule!r}")
    C = 1 + max(max(ls) for ls in [*query_labels, *gallery_labels])
    qh = np.zeros((len(query_labels), C), dtype=np.float32)
    gh = np.zeros((len(gallery_labels), C), dtype=np.float32)
    for i, ls in enumerate(query_labels):
        qh[i, list(ls)] = 1.0
    for i, ls in enumerate(gallery_labels):
        gh[i, list(ls)] = 1.0
    return (qh @ gh.T) > 0.5


def average_precision(ranked_relevant, n_relevant):
    """Mean of precision at each relevant rank, over min(R, k) where k is
    the ranking length; 0 when that is 0."""
    hits = 0
    total = 0.0
    for rank, rel in enumerate(ranked_relevant, start=1):
        if rel:
            hits += 1
            total += hits / rank
    denom = min(int(n_relevant), len(ranked_relevant))
    return total / denom if denom else 0.0


def pr_counts(distances, relevant, B):
    """For each threshold t in 0..B: codes within distance t, and how
    many of them are relevant."""
    all_sorted = np.sort(distances)
    rel_sorted = np.sort(distances[relevant])
    t = np.arange(B + 1)
    return (
        np.searchsorted(all_sorted, t, side="right"),
        np.searchsorted(rel_sorted, t, side="right"),
    )


def pr_curve(distance_rows, relevant_rows, B):
    """Macro-averaged (recall, precision) per threshold 0..B. A query that
    retrieves nothing at a threshold counts precision 1 there; queries
    with no relevant code are skipped."""
    recall = np.zeros(B + 1)
    precision = np.zeros(B + 1)
    counted = 0
    for d, rel in zip(distance_rows, relevant_rows):
        R = int(rel.sum())
        if R == 0:
            continue
        retrieved, hits = pr_counts(d, rel, B)
        precision += np.where(retrieved > 0, hits / np.maximum(retrieved, 1), 1.0)
        recall += hits / R
        counted += 1
    if counted == 0:
        raise ValueError("no query has a relevant code")
    return recall / counted, precision / counted
