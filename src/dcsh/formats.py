"""Readers and writers for every file the toolkit produces.

Binary formats pin magic, version, and little-endian layout; text
formats are line-oriented. Every reader validates before returning and
raises ParseError naming the file and, where it applies, the line.
All writers round-trip bit-exactly through their readers.
"""

import struct

import numpy as np

from .centers import HashCenterSet, LabelSet
from .data import SPLIT_TAGS, Dataset
from .errors import LabelError, ParseError

FEATURE_MAGIC = b"DCSHFEAT"
CODE_MAGIC = b"DCSHCODE"
MODEL_MAGIC = b"DCSHMODL"
FORMAT_VERSION = 1


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _check_header(path, blob, magic):
    if len(blob) < len(magic) + 4:
        raise ParseError(path, "file too short for header")
    if blob[: len(magic)] != magic:
        raise ParseError(
            path, f"bad magic {blob[:len(magic)]!r}, expected {magic!r}"
        )
    (version,) = struct.unpack_from("<I", blob, len(magic))
    if version != FORMAT_VERSION:
        raise ParseError(
            path, f"unsupported version {version}, expected {FORMAT_VERSION}"
        )
    return len(magic) + 4


def _read_lines(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def _write_lines(path, lines):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt_float(x):
    return repr(float(x))


def _bits_to_text(bits):
    """N x B array of 0/1 -> one string of B `0`/`1` characters per row."""
    A = np.asarray(bits)
    B = A.shape[1]
    blob = ((A != 0).astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    return [blob[n * B:(n + 1) * B] for n in range(A.shape[0])]


def _text_to_bits(rows, B):
    """`0`/`1` strings -> (N x B uint8 bits, index of the first row that is
    not B characters of 0/1, or None); no row from that one on is decoded."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    n = int(np.append(np.flatnonzero(lengths != B), len(rows))[0])
    chars = np.frombuffer("".join(rows[:n]).encode("ascii"), dtype=np.uint8)
    bits = (chars - np.uint8(ord("0"))).reshape(n, B)
    bad = int(np.append(np.flatnonzero((bits > 1).any(axis=1)), n)[0])
    return bits, (bad if bad < len(rows) else None)


# ---------------------------------------------------------------- features

def write_features(path, X):
    A = np.ascontiguousarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ParseError(path, f"features must be 2-D, got ndim={A.ndim}")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IQI", FORMAT_VERSION, A.shape[0], A.shape[1]))
        fh.write(A.astype("<f8").tobytes(order="C"))


def read_features(path):
    blob = _read_bytes(path)
    off = _check_header(path, blob, FEATURE_MAGIC)
    if len(blob) < off + 12:
        raise ParseError(path, "truncated feature header")
    N, D = struct.unpack_from("<QI", blob, off)
    off += 12
    expected = N * D * 8
    if len(blob) - off != expected:
        raise ParseError(
            path,
            f"payload is {len(blob) - off} bytes, expected {expected} "
            f"for {N} x {D} float64",
        )
    X = np.frombuffer(blob, dtype="<f8", count=N * D, offset=off)
    X = X.astype(np.float64).reshape(N, D)
    if not np.all(np.isfinite(X)):
        raise ParseError(path, "non-finite feature values")
    return X


# ------------------------------------------------------------------ labels

def write_labels(path, labels, C):
    rows = [",".join(map(str, LabelSet(ls))) for ls in labels]
    _write_lines(path, [f"classes={C}"] + rows)


def read_labels(path):
    """(label sets, C); repeated lines share one parsed LabelSet."""
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("classes="):
        raise ParseError(path, "missing classes=<C> header", line=1)
    try:
        C = int(lines[0][len("classes="):])
    except ValueError:
        raise ParseError(path, f"bad class count {lines[0]!r}", line=1) from None
    if C < 1:
        raise ParseError(path, f"class count must be positive, got {C}", line=1)
    seen = {}
    labels = []
    for ln, text in enumerate(lines[1:], start=2):
        if text not in seen:
            try:
                indices = [int(p) for p in text.split(",")]
            except ValueError:
                raise ParseError(path, f"bad label line {text!r}", line=ln) from None
            try:
                ls = LabelSet(indices)
            except LabelError as exc:
                raise ParseError(path, str(exc), line=ln) from None
            if ls.classes[-1] >= C:
                raise ParseError(
                    path, f"class index {ls.classes[-1]} >= C={C}", line=ln
                )
            seen[text] = ls
        labels.append(seen[text])
    return labels, C


# ------------------------------------------------------------------ splits

def write_split(path, tags):
    for tag in tags:
        if tag not in SPLIT_TAGS:
            raise ParseError(path, f"unknown split tag {tag!r}")
    _write_lines(path, tags)


def read_split(path):
    lines = _read_lines(path)
    tags = []
    for ln, text in enumerate(lines, start=1):
        if text not in SPLIT_TAGS:
            raise ParseError(
                path,
                f"unknown split tag {text!r}, expected one of {SPLIT_TAGS}",
                line=ln,
            )
        tags.append(text)
    return tags


# ----------------------------------------------------------------- dataset

def save_dataset(dataset, feature_path, label_path, split_path):
    write_features(feature_path, dataset.features)
    write_labels(label_path, dataset.labels, dataset.C)
    write_split(split_path, dataset.tags)


def load_dataset(feature_path, label_path, split_path):
    X = read_features(feature_path)
    labels, C = read_labels(label_path)
    tags = read_split(split_path)
    if len(labels) != X.shape[0]:
        raise ParseError(
            label_path,
            f"{len(labels)} label lines vs {X.shape[0]} feature rows",
        )
    if len(tags) != X.shape[0]:
        raise ParseError(
            split_path,
            f"{len(tags)} split lines vs {X.shape[0]} feature rows",
        )
    return Dataset(features=X, labels=tuple(labels), C=C, tags=tuple(tags))


# ----------------------------------------------------------------- centers

def write_centers(path, centers):
    head = f"B={centers.B} C={centers.C} epoch={centers.epoch}"
    _write_lines(path, [head] + _bits_to_text(centers.codes))


def read_centers(path):
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, "empty center file", line=1)
    head = lines[0].split()
    fields = {}
    for part in head:
        key, eq, value = part.partition("=")
        if eq != "=" or key not in ("B", "C", "epoch"):
            raise ParseError(path, f"bad header field {part!r}", line=1)
        try:
            fields[key] = int(value)
        except ValueError:
            raise ParseError(path, f"bad header field {part!r}", line=1) from None
    if sorted(fields) != ["B", "C", "epoch"]:
        raise ParseError(path, "header must set B, C and epoch", line=1)
    B, C, epoch = fields["B"], fields["C"], fields["epoch"]
    rows = lines[1:]
    if len(rows) != C:
        raise ParseError(path, f"expected {C} center lines, found {len(rows)}")
    codes, bad = _text_to_bits(rows, B)
    if bad is not None:
        raise ParseError(path, f"center line must be {B} chars of 0/1", line=bad + 2)
    return HashCenterSet(codes=codes, epoch=epoch)


# ------------------------------------------------------------------- codes

def write_codes_text(path, ids, bits):
    A = np.asarray(bits, dtype=np.uint8)
    ids = np.asarray(ids, dtype=np.int64)
    if A.ndim != 2 or ids.shape[0] != A.shape[0]:
        raise ParseError(path, "ids and code rows must align")
    rows = _bits_to_text(A)
    _write_lines(path, [f"{i}\t{row}" for i, row in zip(ids.tolist(), rows)])


def read_codes_text(path):
    """`<id>\\t<bits>` lines -> (ids, N x B bits); the first line sets B,
    ids are distinct, and the first bad line is reported."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, "empty code file", line=1)
    B = len(lines[0].partition("\t")[2])
    ids = []
    codes = []
    stop = None
    for ln, text in enumerate(lines, start=1):
        ident, tab, code = text.partition("\t")
        if tab != "\t":
            stop = ParseError(path, "expected <id>\\t<bits>", line=ln)
            break
        try:
            ids.append(int(ident))
        except ValueError:
            stop = ParseError(path, f"bad id {ident!r}", line=ln)
            break
        codes.append(code)
    if ids and B == 0:
        raise ParseError(path, "empty codeword", line=1)
    bits, bad = _text_to_bits(codes, B)
    if bad is not None:
        raise ParseError(path, f"codeword must be {B} chars of 0/1", line=bad + 1)
    if stop is not None:
        raise stop
    ids = np.asarray(ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if repeats.size:
        n = int(repeats.min())
        raise ParseError(path, f"duplicate id {ids[n]}", line=n + 1)
    return ids, bits


def write_codes_packed(path, words, B):
    W = np.ascontiguousarray(words, dtype=np.uint64)
    if W.ndim != 2 or W.shape[1] != (B + 63) // 64:
        raise ParseError(path, f"word matrix does not match B={B}")
    with open(path, "wb") as fh:
        fh.write(CODE_MAGIC)
        fh.write(struct.pack("<IQI", FORMAT_VERSION, W.shape[0], B))
        fh.write(W.astype("<u8").tobytes(order="C"))


def read_codes_packed(path):
    blob = _read_bytes(path)
    off = _check_header(path, blob, CODE_MAGIC)
    if len(blob) < off + 12:
        raise ParseError(path, "truncated code header")
    N, B = struct.unpack_from("<QI", blob, off)
    off += 12
    if B < 1:
        raise ParseError(path, f"bad bit count {B}")
    n_words = (B + 63) // 64
    expected = N * n_words * 8
    if len(blob) - off != expected:
        raise ParseError(
            path,
            f"payload is {len(blob) - off} bytes, expected {expected} "
            f"for {N} codes of {B} bits",
        )
    words = np.frombuffer(blob, dtype="<u8", count=N * n_words, offset=off)
    words = words.astype(np.uint64).reshape(N, n_words)
    tail = B % 64
    if tail and N:
        mask = np.uint64((1 << tail) - 1)
        if np.any(words[:, -1] & ~mask):
            raise ParseError(path, "unused high bits must be zero")
    return words, B


# ------------------------------------------------------------------- model

def write_model(path, layers):
    """Persist affine layers as (rows, cols, weights, biases) records."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(layers)))
        for W, b in layers:
            A = np.ascontiguousarray(W, dtype=np.float64)
            v = np.ascontiguousarray(b, dtype=np.float64)
            if A.ndim != 2 or v.ndim != 1 or v.shape[0] != A.shape[1]:
                raise ParseError(path, "layer shapes inconsistent")
            fh.write(struct.pack("<II", A.shape[0], A.shape[1]))
            fh.write(A.astype("<f8").tobytes(order="C"))
            fh.write(v.astype("<f8").tobytes(order="C"))


def read_model(path):
    blob = _read_bytes(path)
    off = _check_header(path, blob, MODEL_MAGIC)
    if len(blob) < off + 4:
        raise ParseError(path, "truncated model header")
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    layers = []
    for li in range(count):
        if len(blob) < off + 8:
            raise ParseError(path, f"truncated header of layer {li}")
        rows, cols = struct.unpack_from("<II", blob, off)
        off += 8
        need = (rows * cols + cols) * 8
        if len(blob) < off + need:
            raise ParseError(path, f"truncated payload of layer {li}")
        W = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=off)
        off += rows * cols * 8
        b = np.frombuffer(blob, dtype="<f8", count=cols, offset=off)
        off += cols * 8
        layers.append(
            (W.astype(np.float64).reshape(rows, cols), b.astype(np.float64))
        )
    if len(blob) != off:
        raise ParseError(path, f"{len(blob) - off} trailing bytes")
    if not np.all([np.all(np.isfinite(W)) and np.all(np.isfinite(b))
                   for W, b in layers]):
        raise ParseError(path, "non-finite model parameters")
    return layers


# -------------------------------------------------------------------- CSVs

def write_loss_csv(path, rows):
    """rows: iterable of (epoch, train_loss, test_loss or None)."""
    lines = ["epoch,train_loss,test_loss"]
    for epoch, train, test in rows:
        tail = "" if test is None else _fmt_float(test)
        lines.append(f"{epoch},{_fmt_float(train)},{tail}")
    _write_lines(path, lines)


def read_loss_csv(path):
    lines = _read_lines(path)
    if not lines or lines[0] != "epoch,train_loss,test_loss":
        raise ParseError(path, "bad loss CSV header", line=1)
    rows = []
    for ln, text in enumerate(lines[1:], start=2):
        parts = text.split(",")
        if len(parts) != 3:
            raise ParseError(path, f"expected 3 fields, got {len(parts)}", line=ln)
        try:
            epoch = int(parts[0])
            train = float(parts[1])
            test = float(parts[2]) if parts[2] else None
        except ValueError:
            raise ParseError(path, f"bad loss row {text!r}", line=ln) from None
        rows.append((epoch, train, test))
    return rows


def write_pr_csv(path, thresholds, recalls, precisions):
    rows = [f"{int(t)},{_fmt_float(r)},{_fmt_float(p)}"
            for t, r, p in zip(thresholds, recalls, precisions)]
    _write_lines(path, ["threshold,recall,precision"] + rows)


def write_map_csv(path, k, map_value):
    _write_lines(path, ["k,map", f"{int(k)},{_fmt_float(map_value)}"])


def write_ap_csv(path, query_ids, aps):
    rows = [f"{int(i)},{_fmt_float(ap)}" for i, ap in zip(query_ids, aps)]
    _write_lines(path, ["id,ap"] + rows)


# --------------------------------------------------------------- manifests

def write_manifest(path, mapping):
    _write_lines(path, [f"{key}={mapping[key]}" for key in sorted(mapping)])


def read_config(path):
    """key=value lines; blank lines and # comments are ignored."""
    lines = _read_lines(path)
    config = {}
    for ln, text in enumerate(lines, start=1):
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if eq != "=" or not key:
            raise ParseError(path, f"expected key=value, got {text!r}", line=ln)
        if key in config:
            raise ParseError(path, f"duplicate key {key!r}", line=ln)
        config[key] = value
    return config
