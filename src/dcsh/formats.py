"""Readers and writers for every file the toolkit produces.

Binary formats pin magic, version, and little-endian layout; text
formats are line-oriented. Every reader validates before returning and
raises ParseError naming the file and, where it applies, the line.
Every file the toolkit reads back round-trips bit-exactly through its
writer and reader; the CSVs are results and have no reader.
"""

import os
import struct

import numpy as np

from . import kernels
from .centers import HashCenterSet
from .data import SPLIT_ROLES, Dataset, label_classes, multi_hot
from .errors import DimensionError, LabelError, ParseError

FEATURE_MAGIC = b"DCSHFEAT"
CODE_MAGIC = b"DCSHCODE"
MODEL_MAGIC = b"DCSHMODL"
FORMAT_VERSION = 1
# The bytes of a text file: line ends, tab and printable ASCII.
_TEXT_BYTES = b"\t\n" + bytes(range(0x20, 0x7f))
_SPLIT_TAGS = {bits: tag for tag, bits in SPLIT_ROLES.items()}


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
    """The lines of an ASCII text file. As in `read_codes_text`, a line
    ends in `\\n` or `\\r\\n`, the last one optionally in neither. The
    first byte above 0x7f, else the first control byte but tab (a lone
    `\\r` included), is reported with its line."""
    blob = _read_bytes(path).replace(b"\r\n", b"\n")
    for kind, allowed in (("non-ASCII", bytes(range(0x80))),
                          ("control", _TEXT_BYTES)):
        stray = blob.translate(None, allowed)
        if stray:
            pos = blob.index(stray[:1])
            line = blob.count(b"\n", 0, pos) + 1
            raise ParseError(path, f"{kind} byte {stray[0]:#04x}", line=line)
    # `\n` is the only line break left for `splitlines` to find.
    return blob.decode("ascii").splitlines()


def _read_header(path, text, lows):
    """Values, in `lows` order, of a first line of `key=<int>` fields one
    space apart, each key of `lows` once and at least its low bound. An
    int is an optional `-` and digits (ASCII, so `isdigit` means 0-9)."""
    fields = {}
    for part in text.split(" "):
        key, eq, value = part.partition("=")
        if (eq != "=" or key not in lows or key in fields
                or not value.removeprefix("-").isdigit()):
            raise ParseError(path, f"bad header field {part!r}", line=1)
        fields[key] = int(value)
        if fields[key] < lows[key]:
            raise ParseError(path, f"{key} must be >= {lows[key]}", line=1)
    if len(fields) != len(lows):
        raise ParseError(path, f"header must set {', '.join(lows)}", line=1)
    return [fields[key] for key in lows]


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

def _write_matrix(path, magic, A, width, dtype):
    """`magic`, u32 version, u64 N, u32 width, then A's N rows in dtype."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<IQI", FORMAT_VERSION, A.shape[0], width))
        fh.write(A.astype(dtype, copy=False).tobytes(order="C"))


def _read_matrix(path, magic, what, dtype, layout):
    """(N x cols payload, width) of a file `_write_matrix` wrote, read
    straight from the file past the 24-byte header, with no second copy
    of the payload; `layout(N, width)` gives cols and the shape's name."""
    with open(path, "rb") as fh:
        head = fh.read(len(magic) + 16)
        off = _check_header(path, head, magic)
        if len(head) < off + 12:
            raise ParseError(path, f"truncated {what} header")
        N, width = struct.unpack_from("<QI", head, off)
        cols, shape = layout(N, width)
        size = os.fstat(fh.fileno()).st_size - len(head)
        expected = N * cols * np.dtype(dtype).itemsize
        if size != expected:
            raise ParseError(
                path, f"payload is {size} bytes, expected {expected} for {shape}"
            )
        payload = np.fromfile(fh, dtype=dtype, count=N * cols)
    return payload.reshape(N, cols), width


def write_features(path, X):
    A = np.ascontiguousarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ParseError(path, f"features must be 2-D, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ParseError(path, "non-finite feature values")
    _write_matrix(path, FEATURE_MAGIC, A, A.shape[1], "<f8")


def read_features(path):
    """N x D float64 features."""
    X, _ = _read_matrix(path, FEATURE_MAGIC, "feature", "<f8",
                        lambda N, D: (D, f"{N} x {D} float64"))
    if not np.all(np.isfinite(X)):
        raise ParseError(path, "non-finite feature values")
    return X


# ------------------------------------------------------------------ labels

def write_labels(path, labels, C):
    """`classes=<C>`, then one sorted label set per line; a fault names
    the line at which `read_labels` would stop."""
    if C < 1:
        raise ParseError(path, "classes must be >= 1", line=1)
    rows = [f"classes={C}"]
    for ln, classes in enumerate(labels, start=2):
        try:
            rows.append(",".join(map(str, label_classes(classes, C))))
        except LabelError as exc:
            raise ParseError(path, str(exc), line=ln) from None
    _write_lines(path, rows)


def read_labels(path):
    """(label sets, C), each a `data.label_classes` tuple; repeated lines
    share the one tuple of their first."""
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("classes="):
        raise ParseError(path, "missing classes=<C> header", line=1)
    (C,) = _read_header(path, lines[0], {"classes": 1})
    seen = {}
    labels = []
    for ln, text in enumerate(lines[1:], start=2):
        if text not in seen:
            fields = text.split(",")
            if not all(map(str.isdigit, fields)):
                raise ParseError(path, f"bad label line {text!r}", line=ln)
            try:
                seen[text] = label_classes(map(int, fields), C)
            except LabelError as exc:
                raise ParseError(path, str(exc), line=ln) from None
        labels.append(seen[text])
    return labels, C


# ------------------------------------------------------------------ splits

def write_split(path, tags):
    """One split tag per line, for role bits as `Dataset.tags` holds them."""
    try:
        lines = [_SPLIT_TAGS[t] for t in np.asarray(tags).tolist()]
    except KeyError as exc:
        raise ParseError(path, f"unknown split tag {exc.args[0]!r}") from None
    _write_lines(path, lines)


def read_split(path):
    """uint8 role bits (`data.SPLIT_ROLES`), one per line."""
    lines = _read_lines(path)
    try:
        return np.fromiter(map(SPLIT_ROLES.__getitem__, lines),
                           dtype=np.uint8, count=len(lines))
    except KeyError as exc:
        # The lookup stops at the first unknown tag.
        tag = exc.args[0]
        raise ParseError(
            path, f"unknown split tag {tag!r}, expected one of "
            f"{tuple(SPLIT_ROLES)}", line=lines.index(tag) + 1,
        ) from None


# ----------------------------------------------------------------- dataset

def check_row_count(path, what, rows, N):
    """The file at `path` must hold one `what` line per feature row."""
    if rows != N:
        raise ParseError(path, f"{rows} {what} lines vs {N} feature rows")


def save_dataset(dataset, feature_path, label_path, split_path):
    write_features(feature_path, dataset.features)
    write_labels(label_path, map(np.flatnonzero, dataset.labels), dataset.C)
    write_split(split_path, dataset.tags)


def load_dataset(feature_path, label_path, split_path):
    X = read_features(feature_path)
    labels, C = read_labels(label_path)
    tags = read_split(split_path)
    check_row_count(label_path, "label", len(labels), X.shape[0])
    check_row_count(split_path, "split", len(tags), X.shape[0])
    return Dataset(features=X, labels=multi_hot(labels, C), tags=tags)


# ----------------------------------------------------------------- centers

def write_centers(path, centers):
    head = f"B={centers.B} C={centers.C} epoch={centers.epoch}"
    _write_lines(path, [head] + _bits_to_text(centers.codes))


def read_centers(path):
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, "empty center file", line=1)
    B, C, epoch = _read_header(path, lines[0], {"B": 1, "C": 1, "epoch": 0})
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
    if ids.min(initial=0) < 0:
        raise ParseError(path, f"ids must be >= 0, got {ids.min()}")
    rows = _bits_to_text(A)
    _write_lines(path, [f"{i}\t{row}" for i, row in zip(ids.tolist(), rows)])


def _code_line_fault(line, B):
    """What is wrong with one `<id>\\t<bits>` line (bytes, no line end),
    or None: a missing tab, then a bad id, then a bad codeword."""
    ident, tab, code = line.partition(b"\t")
    if not tab:
        return "expected <id>\\t<bits>"
    if not (len(ident) <= 19 and ident.isdigit() and int(ident) < 2**63):
        return f"bad id {ascii(ident.decode('latin-1'))}"
    if len(code) != B or code.strip(b"01"):
        return f"codeword must be {B} chars of 0/1"
    return None


def read_codes_text(path):
    """`<id>\\t<bits>` lines -> (int64 ids, N x B uint8 bits); the first
    line sets B, ids are distinct, and the first bad line is reported.

    An id is a row number: 1-19 decimal digits with a value below 2**63.
    Lines end in `\\n` or `\\r\\n`, the last one optionally in neither.
    The file is checked with array operations, one column of id digits
    at a time; only the first bad line is decoded alone, to name its
    fault.
    """
    buf = np.fromfile(path, dtype=np.uint8)
    if not buf.size:
        raise ParseError(path, "empty code file", line=1)
    lf = np.flatnonzero(buf == ord("\n"))
    ends = lf - ((lf > 0) & (buf[lf - 1] == ord("\r")))
    if buf[-1] != ord("\n"):
        ends = np.append(ends, buf.size)
    starts = np.append(0, lf[: ends.size - 1] + 1)
    first = buf[: ends[0]].tobytes()
    tab = first.find(b"\t")
    B = len(first) - tab - 1
    if tab < 0 or B == 0:
        fault = _code_line_fault(first, 0) or "empty codeword"
        raise ParseError(path, fault, line=1)
    # A good line ends in a tab and B codeword bytes.
    tabs = ends - (B + 1)
    width = tabs - starts
    ok = (width >= 1) & (buf[tabs] == ord("\t"))
    bits = np.lib.stride_tricks.sliding_window_view(buf, B)[tabs + 1]
    bits -= ord("0")
    if bits.max() > 1:  # a whole-array max is ten times faster than per row
        ok &= bits.max(axis=1) <= 1
    ids = np.zeros(ends.size, dtype=np.uint64)
    # Column j is the j-th byte left of the tab, a digit up to j = 19; so
    # an id of more than 19 bytes fails at j = 20, and no further column
    # is read. 19 digits stay below 10**19 < 2**64, so no sum wraps.
    for j in range(1, min(int(width.max()), 20) + 1):
        digit = buf.take(tabs - j, mode="clip") - ord("0")
        live = width >= j
        is_digit = live & (digit <= 9) & (j < 20)
        ok &= ~live | is_digit
        ids += np.where(is_digit, digit, 0) * np.uint64(10 ** (j - 1))
    ok &= ids < np.uint64(2**63)
    bad = np.flatnonzero(~ok)
    if bad.size:
        n = int(bad[0])
        line = buf[starts[n]:ends[n]].tobytes()
        raise ParseError(path, _code_line_fault(line, B), line=n + 1)
    ids = ids.view(np.int64)
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if repeats.size:
        n = int(repeats.min())
        raise ParseError(path, f"duplicate id {ids[n]}", line=n + 1)
    return ids, bits


def write_codes_packed(path, words, B):
    try:
        W = kernels.check_words(words, B)
    except DimensionError as exc:
        raise ParseError(path, str(exc)) from None
    _write_matrix(path, CODE_MAGIC, W, B, "<u8")


def read_codes_packed(path):
    words, B = _read_matrix(
        path, CODE_MAGIC, "code", "<u8",
        lambda N, B: (kernels.word_count(B), f"{N} codes of {B} bits"),
    )
    try:
        return kernels.check_words(words, B), B
    except DimensionError as exc:
        raise ParseError(path, str(exc)) from None


# ------------------------------------------------------------------- model

def write_model(path, layers):
    """Persist affine layers as (rows, cols, weights, biases) records."""
    layers = [(np.ascontiguousarray(W, dtype=np.float64),
               np.ascontiguousarray(b, dtype=np.float64)) for W, b in layers]
    for A, v in layers:
        if A.ndim != 2 or v.ndim != 1 or v.shape[0] != A.shape[1]:
            raise ParseError(path, "layer shapes inconsistent")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(v))):
            raise ParseError(path, "non-finite model parameters")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(layers)))
        for A, v in layers:
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
