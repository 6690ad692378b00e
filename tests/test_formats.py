import hashlib
import re
import struct

import numpy as np
import pytest

from dcsh.centers import HashCenterSet, gen_bernoulli_centers
from dcsh.data import SPLIT_ROLES, gen_synthetic, multi_hot
from dcsh.errors import DimensionError, ParseError
from dcsh.formats import (
    read_centers,
    read_codes_packed,
    read_codes_text,
    read_config,
    read_features,
    read_labels,
    read_model,
    read_split,
    load_dataset,
    save_dataset,
    write_centers,
    write_codes_packed,
    write_codes_text,
    write_features,
    write_labels,
    write_loss_csv,
    write_manifest,
    write_model,
    write_pr_csv,
    write_split,
)
from dcsh.network import build_model
from dcsh.retrieval import PackedCodeIndex, pack_codes, unpack_codes


def roles(*tags):
    """The uint8 role bits of split tags, through `SPLIT_ROLES`."""
    return np.array([SPLIT_ROLES[t] for t in tags], dtype=np.uint8)


def put_float64(path, old, new):
    """Overwrite the one float64 `old` in a binary file with `new`, to
    make a file that no writer would write."""
    blob = path.read_bytes()
    old, new = np.float64(old).tobytes(), np.float64(new).tobytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))


class TestFeatures:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 3)) * np.exp(rng.standard_normal((7, 3)) * 5)
        path = tmp_path / "f.bin"
        write_features(path, X)
        back = read_features(path)
        np.testing.assert_array_equal(back, X)
        assert back.dtype == np.float64

    def test_repeat_write_is_byte_identical(self, tmp_path):
        X = np.random.default_rng(1).standard_normal((5, 4))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_features(a, X)
        write_features(b, X)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
        with pytest.raises(ParseError) as err:
            read_features(path)
        assert "magic" in str(err.value)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features(path, np.zeros((1, 1)))
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError):
            read_features(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features(path, np.zeros((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features(path, np.zeros((3, 3)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ParseError) as err:
            read_features(path)
        assert "payload is 80 bytes, expected 72 for 3 x 3 float64" in str(
            err.value
        )

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features(path, np.zeros((2, 2)))
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ParseError) as err:
            read_features(path)
        assert "truncated feature header" in str(err.value)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features(path, np.array([[1.0, 5.0], [0.0, 2.0]]))
        put_float64(path, 5.0, np.inf)
        with pytest.raises(ParseError) as err:
            read_features(path)
        assert "non-finite feature values" in str(err.value)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_writer_refuses_non_finite(self, tmp_path, bad):
        path = tmp_path / "f.bin"
        with pytest.raises(ParseError) as err:
            write_features(path, np.array([[1.0, bad], [0.0, 2.0]]))
        assert str(err.value) == f"{path}: non-finite feature values"
        assert not path.exists()

    def test_empty_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features(path, np.zeros((0, 5)))
        back = read_features(path)
        assert back.shape == (0, 5) and back.dtype == np.float64

    def test_error_carries_path(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"xx")
        with pytest.raises(ParseError) as err:
            read_features(path)
        assert err.value.path == str(path)
        assert str(path) in str(err.value)


class TestLabels:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "l.txt"
        write_labels(path, [[0], [2, 1], [3]], C=4)
        labels, C = read_labels(path)
        assert C == 4
        assert labels == [(0,), (1, 2), (3,)]

    @pytest.mark.parametrize("labels, C, message", [
        ([[0]], 0, "1: classes must be >= 1"),
        ([[0], [5]], 3, "3: class index 5 >= C=3"),
        ([[0], [1, 1]], 3, "3: duplicate class indices in (1, 1)"),
        ([[0], []], 3, "3: label set is empty"),
        ([[-1, 2]], 3, "2: negative class index in (-1, 2)"),
    ], ids=["zero-classes", "class-too-large", "repeat", "empty", "negative"])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, labels,
                                                    C, message):
        """The writer names the line at which the reader would reject
        the file; but a negative class, which the reader's grammar
        rejects as a bad line, is named by the label-set rule."""
        path = tmp_path / "l.txt"
        with pytest.raises(ParseError) as err:
            write_labels(path, labels, C)
        assert str(err.value) == f"{path}:{message}"
        assert not path.exists()

    def test_header_required(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0\n1\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 1

    def test_out_of_range_line_number(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("classes=3\n0\n1\n3\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 4
        assert ":4:" in str(err.value)

    def test_bad_index_text(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("classes=3\n0\nx\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 3

    def test_duplicate_in_set(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("classes=3\n1,1\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 2

    def test_repeated_lines_share_one_label_set(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("classes=3\n2,0\n1\n2,0\n1\n")
        labels, _ = read_labels(path)
        assert labels == [(0, 2), (1,), (0, 2), (1,)]
        assert labels[0] is labels[2] and labels[1] is labels[3]

    def test_bad_line_after_repeated_good_lines(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("classes=3\n" + "0,1\n2\n" * 4 + "0,3\n2\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 10
        assert str(err.value) == f"{path}:10: class index 3 >= C=3"

    @pytest.mark.parametrize("text, line, message", [
        ("classes=12\n+1\n 2\n1_0\n", 2, "bad label line '+1'"),
        ("classes=12\n0\n 2\n", 3, "bad label line ' 2'"),
        ("classes=12\n0\n1_0\n", 3, "bad label line '1_0'"),
        ("classes=12\n0\n2 \n", 3, "bad label line '2 '"),
        ("classes=12\n0\n-1\n", 3, "bad label line '-1'"),
        ("classes=12\n1,\n", 2, "bad label line '1,'"),
        ("classes=12\n1,,2\n", 2, "bad label line '1,,2'"),
        ("classes=12\n0\n\n", 3, "bad label line ''"),
        ("classes= +3\n0\n", 1, "bad header field 'classes='"),
        ("classes=+3\n0\n", 1, "bad header field 'classes=+3'"),
        ("classes=3 \n0\n", 1, "bad header field ''"),
        ("classes=1_0\n0\n", 1, "bad header field 'classes=1_0'"),
        ("classes=3 classes=3\n0\n", 1, "bad header field 'classes=3'"),
        ("classes=0\n0\n", 1, "classes must be >= 1"),
        ("classes=-2\n0\n", 1, "classes must be >= 1"),
    ], ids=["plus", "space", "underscore", "trailing-space", "negative",
            "trailing-comma", "empty-field", "empty-line", "header-space",
            "header-plus", "header-trailing-space", "header-underscore",
            "header-twice", "header-zero", "header-negative"])
    def test_strict_grammar(self, tmp_path, text, line, message):
        """A class is one or more ASCII digits; the header is one
        `classes=<int>` field."""
        path = tmp_path / "l.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_leading_zeros_read_as_digits(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("classes=012\n007,10\n")
        labels, C = read_labels(path)
        assert C == 12 and labels[0] == (7, 10)


class TestSplit:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.txt"
        tags = roles("query", "gallery+train", "gallery", "train")
        write_split(path, tags)
        assert path.read_bytes() == b"query\ngallery+train\ngallery\ntrain\n"
        back = read_split(path)
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, tags)

    def test_unknown_tag_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("query\ntest\n")
        with pytest.raises(ParseError) as err:
            read_split(path)
        assert err.value.line == 2
        assert str(err.value) == (
            f"{path}:2: unknown split tag 'test', expected one of "
            "('train', 'gallery', 'query', 'gallery+train')"
        )

    @pytest.mark.parametrize("value", [0, 5, 6, 7, 8])
    def test_write_rejects_unknown_role(self, tmp_path, value):
        path = tmp_path / "s.txt"
        with pytest.raises(ParseError) as err:
            write_split(path, np.array([1, value], dtype=np.uint8))
        assert str(err.value) == f"{path}: unknown split tag {value}"
        assert not path.exists()


class TestDatasetIo:
    def test_roundtrip(self, tmp_path):
        ds = gen_synthetic(N=40, D=6, C=3, multilabel_p=0.3, seed=2)
        f, l, s = tmp_path / "f.bin", tmp_path / "l.txt", tmp_path / "s.txt"
        save_dataset(ds, f, l, s)
        back = load_dataset(f, l, s)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.tags, ds.tags)
        assert back.C == ds.C

    def test_load_builds_the_table_with_multi_hot(self, tmp_path):
        f, l, s = tmp_path / "f.bin", tmp_path / "l.txt", tmp_path / "s.txt"
        write_features(f, np.zeros((3, 2)))
        write_labels(l, [[0], [2, 1], [0]], C=4)
        write_split(s, roles(*["train"] * 3))
        back = load_dataset(f, l, s)
        assert back.C == 4
        np.testing.assert_array_equal(
            back.labels, multi_hot([[0], [1, 2], [0]], 4)
        )

    @pytest.mark.parametrize("seed, digest", [
        (0, "3c69eb3849104aa8a62114f7c39aafad11fd76a65a6cb98973804fd210c9f775"),
        (1, "40149a5e55ed0d0eed3907ac7318a2818f35de49e4ff94202acd6cbc9be6a31f"),
    ])
    def test_synthetic_labels_file_is_golden(self, tmp_path, seed, digest):
        """The label file of a seeded multi-label dataset, byte for byte,
        as written when `Dataset` still held one label set per row."""
        ds = gen_synthetic(N=300, D=8, C=5, multilabel_p=0.4, seed=seed)
        f, l, s = tmp_path / "f.bin", tmp_path / "l.txt", tmp_path / "s.txt"
        save_dataset(ds, f, l, s)
        assert hashlib.sha256(l.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed, digest", [
        (0, "0c7b6815ec08a3a08d27cd96a40c5d01d0a020cfd91ac0df24955feabe751fba"),
        (1, "4bb2dd959e29dbcdfcba95f498b859f198347477ad54a3858516a35dd0930c81"),
    ])
    def test_synthetic_splits_file_is_golden(self, tmp_path, seed, digest):
        """The split file of a seeded dataset, byte for byte, as written
        when `Dataset` still held one tag string per row."""
        ds = gen_synthetic(N=300, D=8, C=5, multilabel_p=0.4, seed=seed)
        f, l, s = tmp_path / "f.bin", tmp_path / "l.txt", tmp_path / "s.txt"
        save_dataset(ds, f, l, s)
        assert hashlib.sha256(s.read_bytes()).hexdigest() == digest

    def test_count_mismatch_names_offender(self, tmp_path):
        ds = gen_synthetic(N=10, D=6, C=3, seed=0)
        f, l, s = tmp_path / "f.bin", tmp_path / "l.txt", tmp_path / "s.txt"
        save_dataset(ds, f, l, s)
        write_labels(l, [[0]], C=3)
        with pytest.raises(ParseError) as err:
            load_dataset(f, l, s)
        assert err.value.path == str(l)
        assert str(err.value) == f"{l}: 1 label lines vs 10 feature rows"
        save_dataset(ds, f, l, s)
        write_split(s, roles("query"))
        with pytest.raises(ParseError) as err:
            load_dataset(f, l, s)
        assert err.value.path == str(s)
        assert str(err.value) == f"{s}: 1 split lines vs 10 feature rows"


class TestCenters:
    def test_roundtrip(self, tmp_path):
        cs = gen_bernoulli_centers(19, 5, seed=3)
        stamped = HashCenterSet(cs.codes, epoch=7)
        path = tmp_path / "c.txt"
        write_centers(path, stamped)
        back = read_centers(path)
        np.testing.assert_array_equal(back.codes, stamped.codes)
        assert back.epoch == 7

    def test_header_text(self, tmp_path):
        cs = HashCenterSet(np.array([[1, 0, 1]], dtype=np.uint8), epoch=2)
        path = tmp_path / "c.txt"
        write_centers(path, cs)
        assert path.read_text().splitlines()[0] == "B=3 C=1 epoch=2"

    def test_wrong_line_length(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("B=4 C=2 epoch=0\n1010\n101\n")
        with pytest.raises(ParseError) as err:
            read_centers(path)
        assert err.value.line == 3

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("B=4 C=3 epoch=0\n1010\n0101\n")
        with pytest.raises(ParseError):
            read_centers(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("B=4 C=2\n1010\n0101\n")
        with pytest.raises(ParseError) as err:
            read_centers(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("head, message", [
        ("B=4  C=2 epoch=0 ", "bad header field ''"),
        ("B=4 C=2 epoch=0 ", "bad header field ''"),
        (" B=4 C=2 epoch=0", "bad header field ''"),
        ("B=4\tC=2 epoch=0", "bad header field 'B=4\\tC=2'"),
        ("B=+4 C=2 epoch=0", "bad header field 'B=+4'"),
        ("B=4 C=2 epoch=0_0", "bad header field 'epoch=0_0'"),
        ("B=4 C=2 epoch=0 B=4", "bad header field 'B=4'"),
        ("B=4 C=2 seed=0", "bad header field 'seed=0'"),
        ("B=4 C=2", "header must set B, C, epoch"),
    ], ids=["two-spaces", "trailing-space", "leading-space", "tab", "plus",
            "underscore", "twice", "unknown-key", "missing-key"])
    def test_strict_header(self, tmp_path, head, message):
        """Fields are `key=<int>`, one space apart, each key once."""
        path = tmp_path / "c.txt"
        path.write_text(head + "\n1010\n0101\n")
        with pytest.raises(ParseError) as err:
            read_centers(path)
        assert str(err.value) == f"{path}:1: {message}"

    def test_header_fields_in_any_order(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("epoch=3 C=2 B=4\n1010\n0101\n")
        back = read_centers(path)
        assert (back.B, back.C, back.epoch) == (4, 2, 3)

    @pytest.mark.parametrize("text, message", [
        ("B=-3 C=1 epoch=0\n010\n", "B must be >= 1"),
        ("B=0 C=1 epoch=0\n\n", "B must be >= 1"),
        ("B=3 C=0 epoch=0\n", "C must be >= 1"),
        ("B=3 C=1 epoch=-1\n010\n", "epoch must be >= 0"),
    ], ids=["negative-B", "zero-B", "zero-C", "negative-epoch"])
    def test_header_value_out_of_range(self, tmp_path, text, message):
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_centers(path)
        assert str(err.value) == f"{path}:1: {message}"

    def test_bad_character(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("B=4 C=3 epoch=0\n1010\n1210\n0101\n")
        with pytest.raises(ParseError) as err:
            read_centers(path)
        assert err.value.line == 3
        assert f"{path}:3: center line must be 4 chars of 0/1" == str(err.value)


def reference_read_codes_text(path):
    """The per-line reader that `read_codes_text` replaced, kept as its
    reference. It differs from the old code only where the grammar is now
    stricter: lines end at `\\n`, with an optional `\\r` before it, and an
    id must be 1-19 digits with a value below 2**63."""
    *lines, last = path.read_bytes().decode("latin-1").split("\n")
    lines = [text.removesuffix("\r") for text in lines] + ([last] if last else [])
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
        if not (re.fullmatch("[0-9]{1,19}", ident) and int(ident) < 2**63):
            stop = ParseError(path, f"bad id {ident!r}", line=ln)
            break
        ids.append(int(ident))
        codes.append(code)
    if ids and B == 0:
        raise ParseError(path, "empty codeword", line=1)
    for ln, code in enumerate(codes, start=1):
        if len(code) != B or code.strip("01"):
            raise ParseError(path, f"codeword must be {B} chars of 0/1", line=ln)
    if stop is not None:
        raise stop
    seen = set()
    for ln, ident in enumerate(ids, start=1):
        if ident in seen:
            raise ParseError(path, f"duplicate id {ident}", line=ln)
        seen.add(ident)
    chars = np.frombuffer("".join(codes).encode("ascii"), dtype=np.uint8)
    return np.array(ids, dtype=np.int64), (chars - ord("0")).reshape(-1, B)


def read_outcome(read, path):
    """(ids, bits) as comparable values, or the (line, message) of the error."""
    try:
        ids, bits = read(path)
    except ParseError as exc:
        return exc.line, str(exc)
    assert ids.dtype == np.int64 and bits.dtype == np.uint8
    assert bits.flags.c_contiguous
    return ids.tolist(), bits.shape, bits.tobytes()


def random_code_file(rng, B):
    """1-5 lines of mixed-width ids, sometimes 0 or the largest id,
    with `\\n` or `\\r\\n` line ends and maybe no final newline; then 0-2
    single-byte replacements, insertions or deletions."""
    n = int(rng.integers(1, 6))
    ids = [int(rng.integers(0, 10**w)) for w in rng.integers(1, 19, n)]
    if rng.random() < 0.2:
        ids[int(rng.integers(n))] = int(rng.choice([0, 2**63 - 1]))
    bits = rng.integers(0, 2, size=(n, B), dtype=np.uint8) + ord("0")
    end = b"\r\n" if rng.random() < 0.2 else b"\n"
    blob = bytearray(end.join(
        b"%d\t%s" % (i, row.tobytes()) for i, row in zip(ids, bits)
    ))
    if rng.random() < 0.7:
        blob += end
    for _ in range(int(rng.integers(0, 3))):
        pos = int(rng.integers(0, len(blob) + 1))
        byte = rng.choice(list(b"0123456789\t\n-x\x00"))
        op = rng.integers(0, 3)
        if op == 0 and pos < len(blob):
            blob[pos] = byte
        elif op == 1:
            blob.insert(pos, byte)
        elif pos < len(blob):
            del blob[pos]
    return bytes(blob)


def _packed_file(tmp_path, words, B):
    path = tmp_path / "codes.bin"
    path.write_bytes(b"DCSHCODE" + struct.pack("<IQI", 1, words.shape[0], B)
                     + words.astype("<u8").tobytes())
    return path


class TestCodes:
    def test_text_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(6, 11), dtype=np.uint8)
        ids = np.array([4, 0, 9, 2, 7, 5])
        path = tmp_path / "codes.txt"
        write_codes_text(path, ids, bits)
        back_ids, back_bits = read_codes_text(path)
        np.testing.assert_array_equal(back_ids, ids)
        np.testing.assert_array_equal(back_bits, bits)

    def test_text_line_format(self, tmp_path):
        path = tmp_path / "codes.txt"
        write_codes_text(path, [12], np.array([[1, 0, 1]], dtype=np.uint8))
        assert path.read_text() == "12\t101\n"

    def test_text_ragged_rejected(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("1\t101\n2\t10\n")
        with pytest.raises(ParseError) as err:
            read_codes_text(path)
        assert err.value.line == 2

    def test_text_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("1 101\n")
        with pytest.raises(ParseError):
            read_codes_text(path)

    @pytest.mark.parametrize("text, line, message", [
        ("1\t101\n2\t1x1\n3\t000\n", 2, "codeword must be 3 chars of 0/1"),
        ("1\t101\n2\t10/\n", 2, "codeword must be 3 chars of 0/1"),
        ("1\t101\nx\t101\n", 2, "bad id 'x'"),
        ("1\t\n2\t101\n", 1, "empty codeword"),
        ("", 1, "empty code file"),
        ("3\t101\n1\t000\n3\t111\n", 3, "duplicate id 3"),
    ], ids=["bad-char", "char-below-0", "bad-id", "empty-codeword",
            "empty-file", "duplicate-id"])
    def test_text_bad_line_named(self, tmp_path, text, line, message):
        path = tmp_path / "codes.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_codes_text(path)
        assert err.value.line == line
        assert str(err.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize("text, line", [
        ("1\t101\n2\t121\n3 000\n", 2),  # bad bits before a missing tab
        ("1\t101\n2\t101\nx\t121\n", 3),  # id and bits bad on one line
        ("1\t101\n2\t10\n3\t1x1\n", 2),  # wrong length before bad bits
        ("1\t101\n2\t1x1\n3\t10\n", 2),  # bad bits before wrong length
        ("1\t101\n1\t1x1\n", 2),  # bad bits win over a repeated id
    ])
    def test_text_first_bad_line_reported(self, tmp_path, text, line):
        path = tmp_path / "codes.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_codes_text(path)
        assert err.value.line == line

    @pytest.mark.parametrize("B", [1, 3, 64, 65, 128, 200])
    def test_text_matches_reference_reader(self, tmp_path, B):
        rng = np.random.default_rng(B)
        path = tmp_path / "codes.txt"
        errors = 0
        for _ in range(1000):
            path.write_bytes(random_code_file(rng, B))
            want = read_outcome(reference_read_codes_text, path)
            assert read_outcome(read_codes_text, path) == want, path.read_bytes()
            errors += isinstance(want[0], int)
        assert 200 < errors < 800  # both outcomes are well represented

    def test_text_int64_ends_and_spellings(self, tmp_path):
        path = tmp_path / "codes.txt"
        write_codes_text(path, [0, 2**63 - 1], [[1, 0], [0, 1]])
        ids, _ = read_codes_text(path)
        assert ids.tolist() == [0, 2**63 - 1]
        path.write_text("00\t10\n007\t01\n0042\t11\n")
        ids, bits = read_codes_text(path)
        assert ids.tolist() == [0, 7, 42]
        assert bits.tolist() == [[1, 0], [0, 1], [1, 1]]

    @pytest.mark.parametrize("ids", [[3, -1], [-2**63]])
    def test_text_writer_rejects_negative_id(self, tmp_path, ids):
        path = tmp_path / "codes.txt"
        bits = np.zeros((len(ids), 2), dtype=np.uint8)
        with pytest.raises(ParseError) as err:
            write_codes_text(path, ids, bits)
        assert str(err.value) == f"{path}: ids must be >= 0, got {min(ids)}"
        assert not path.exists()

    def test_text_crlf_and_missing_final_newline(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_bytes(b"5\t101\r\n3\t011\r\n9\t110")
        ids, bits = read_codes_text(path)
        assert ids.tolist() == [5, 3, 9]
        assert bits.tolist() == [[1, 0, 1], [0, 1, 1], [1, 1, 0]]

    @pytest.mark.parametrize("text, line, message", [
        ("1\t101\n\n2\t010\n", 2, "expected <id>\\t<bits>"),
        ("1\t101\n\r\n", 2, "expected <id>\\t<bits>"),
        ("1\t101\n00000000000000000001\t010\n", 2,
         "bad id '00000000000000000001'"),
        ("9223372036854775808\t101\n", 1, "bad id '9223372036854775808'"),
        ("-9223372036854775809\t101\n", 1, "bad id '-9223372036854775809'"),
        ("1\t101\n-3\t010\n", 2, "bad id '-3'"),
        ("1\t101\n-0\t010\n", 2, "bad id '-0'"),
        ("1\t101\n 2\t010\n", 2, "bad id ' 2'"),
        ("1\t101\n+2\t010\n", 2, "bad id '+2'"),
        ("1\t101\n-\t010\n", 2, "bad id '-'"),
        ("1\t101\n--2\t010\n", 2, "bad id '--2'"),
        ("1\t101\n2-\t010\n", 2, "bad id '2-'"),
        ("1\t101\n2\t\t010\n", 2, "codeword must be 3 chars of 0/1"),
        ("1\t101\r2\t010\n", 1, "codeword must be 9 chars of 0/1"),
        ("1\t101\n2\t010\r", 2, "codeword must be 3 chars of 0/1"),
        ("5-11010\t\n", 1, "bad id '5-11010'"),
        ("5-11010\t\n3\t1\n", 1, "bad id '5-11010'"),
        ("5\t\nx\t1\n", 1, "empty codeword"),
        ("\t101\n", 1, "bad id ''"),
        ("\n", 1, "expected <id>\\t<bits>"),
    ], ids=["blank-line", "blank-crlf-line", "twenty-digits", "above-int64",
            "below-int64", "negative", "minus-zero", "space", "plus",
            "lone-minus", "two-minus",
            "trailing-minus", "second-tab", "lone-cr", "final-cr",
            "bad-id-and-empty-codeword", "bad-id-before-bad-line",
            "empty-codeword-before-bad-id", "empty-id", "only-newline"])
    def test_text_strict_grammar(self, tmp_path, text, line, message):
        path = tmp_path / "codes.txt"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(ParseError) as err:
            read_codes_text(path)
        assert str(err.value) == f"{path}:{line}: {message}"
        assert read_outcome(reference_read_codes_text, path) == (
            line, str(err.value)
        )

    def test_text_non_ascii_byte_named(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_bytes(b"1\t101\n2\xe9\t010\n")
        with pytest.raises(ParseError) as err:
            read_codes_text(path)
        assert str(err.value) == f"{path}:2: bad id '2\\xe9'"

    def test_text_gallery_sized_roundtrip(self, tmp_path):
        # 10^6 shuffled row numbers and 64-bit codes; the file holds no
        # fault, so the reference would return the same arrays.
        rng = np.random.default_rng(12)
        n = 1_000_000
        ids = rng.permutation(n)
        bits = rng.integers(0, 2, size=(n, 64), dtype=np.uint8)
        path = tmp_path / "codes.txt"
        write_codes_text(path, ids, bits)
        got_ids, got_bits = read_codes_text(path)
        np.testing.assert_array_equal(got_ids, ids)
        np.testing.assert_array_equal(got_bits, bits)

    @pytest.mark.parametrize("B", [3, 64, 67, 128])
    def test_packed_roundtrip(self, tmp_path, B):
        rng = np.random.default_rng(B)
        bits = rng.integers(0, 2, size=(5, B), dtype=np.uint8)
        words = pack_codes(bits)
        path = tmp_path / "codes.bin"
        write_codes_packed(path, words, B)
        back_words, back_B = read_codes_packed(path)
        assert back_B == B
        np.testing.assert_array_equal(back_words, words)

    def test_packed_dirty_high_bits_rejected(self, tmp_path):
        path = tmp_path / "codes.bin"
        words = np.array([[np.uint64(1) << np.uint64(60)]], dtype=np.uint64)
        write_codes_packed(path, words, 64)
        read_codes_packed(path)  # B=64 uses the whole word
        # The writer refuses these words for B=40, so build the file by hand.
        path = _packed_file(tmp_path, words, 40)
        with pytest.raises(ParseError):
            read_codes_packed(path)

    def test_packed_empty_roundtrip(self, tmp_path):
        path = tmp_path / "codes.bin"
        write_codes_packed(path, np.zeros((0, 2), dtype=np.uint64), 67)
        words, B = read_codes_packed(path)
        assert words.shape == (0, 2) and words.dtype == np.uint64 and B == 67

    def test_packed_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "codes.bin"
        write_codes_packed(path, pack_codes(np.ones((2, 3))), 3)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ParseError) as err:
            read_codes_packed(path)
        assert str(err.value) == f"{path}: truncated code header"


class TestMatrixLayout:
    """features.bin and codes-*.bin share one header: magic, u32 version,
    u64 N, u32 width, then the little-endian rows."""

    def test_feature_bytes(self, tmp_path):
        X = np.random.default_rng(2).standard_normal((3, 2))
        path = tmp_path / "f.bin"
        write_features(path, X)
        assert path.read_bytes() == (
            b"DCSHFEAT" + struct.pack("<IQI", 1, 3, 2) + X.astype("<f8").tobytes()
        )

    def test_code_bytes(self, tmp_path):
        words = pack_codes(np.random.default_rng(3).integers(0, 2, (4, 67)))
        path = tmp_path / "codes.bin"
        write_codes_packed(path, words, 67)
        assert path.read_bytes() == (
            b"DCSHCODE" + struct.pack("<IQI", 1, 4, 67)
            + words.astype("<u8").tobytes()
        )


@pytest.mark.parametrize("words, B", [
    (np.zeros((2, 2), dtype=np.uint64), 64),  # one word too many
    (np.zeros((2, 1), dtype=np.uint64), 65),  # one word too few
    (np.array([[1], [1 << 40]], dtype=np.uint64), 40),  # bit 40 with B = 40
    (np.array([[0, 8]], dtype=np.uint64), 67),  # bit 67 with B = 67
], ids=["extra-word", "missing-word", "dirty-40", "dirty-67"])
@pytest.mark.parametrize("consumer", ["index", "unpack", "read", "write"])
def test_one_word_check(tmp_path, words, B, consumer):
    if consumer == "index":
        with pytest.raises(DimensionError):
            PackedCodeIndex(words, B, ids=np.arange(words.shape[0]))
    elif consumer == "unpack":
        with pytest.raises(DimensionError):
            unpack_codes(words, B)
    elif consumer == "write":
        with pytest.raises(ParseError):
            write_codes_packed(tmp_path / "codes.bin", words, B)
    else:
        path = _packed_file(tmp_path, words, B)
        with pytest.raises(ParseError) as err:
            read_codes_packed(path)
        # In a file, a wrong word count is a payload of the wrong length.
        dirty = words.shape[1] == (B + 63) // 64
        want = "unused high bits must be zero" if dirty else "payload is "
        assert str(err.value).startswith(f"{path}: {want}")


class TestModel:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = build_model(D=6, C=3, bits=4, hidden=(8,), d_int=12, seed=5)
        path = tmp_path / "m.bin"
        write_model(path, model.layers)
        back = read_model(path)
        assert len(back) == len(model.layers)
        for (W, b), (W2, b2) in zip(model.layers, back):
            np.testing.assert_array_equal(W, W2)
            np.testing.assert_array_equal(b, b2)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = build_model(D=6, C=3, bits=4, hidden=(8,), d_int=12, seed=5)
        path = tmp_path / "m.bin"
        write_model(path, model.layers)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError):
            read_model(path)

    def test_truncation_names_layer(self, tmp_path):
        model = build_model(D=6, C=3, bits=4, hidden=(8,), d_int=12, seed=5)
        path = tmp_path / "m.bin"
        write_model(path, model.layers)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError) as err:
            read_model(path)
        assert "layer 3" in str(err.value)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        write_model(path, [(np.array([[7.0]]), np.zeros(1))])
        put_float64(path, 7.0, np.inf)
        with pytest.raises(ParseError):
            read_model(path)

    @pytest.mark.parametrize("layer", [0, 1])
    def test_writer_refuses_non_finite(self, tmp_path, layer):
        model = build_model(D=6, C=3, bits=4, hidden=(8,), d_int=12, seed=5)
        layers = [(W.copy(), b.copy()) for W, b in model.layers]
        layers[1][layer][0] = np.inf  # a weight, then a bias
        path = tmp_path / "m.bin"
        with pytest.raises(ParseError) as err:
            write_model(path, layers)
        assert str(err.value) == f"{path}: non-finite model parameters"
        assert not path.exists()

    def test_writer_refuses_bad_shapes_before_opening(self, tmp_path):
        path = tmp_path / "m.bin"
        with pytest.raises(ParseError, match="layer shapes inconsistent"):
            write_model(path, [(np.zeros((2, 3)), np.zeros(2))])
        assert not path.exists()


def read_loss(path):
    """loss.csv as a 1-D record array; an empty test field reads as nan."""
    return np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))


class TestLossCsv:
    def test_byte_layout(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [(0, -1.5, -1.25), (1, -2.0, None)])
        assert path.read_bytes() == (
            b"epoch,train_loss,test_loss\n0,-1.5,-1.25\n1,-2.0,\n"
        )

    def test_roundtrip_with_and_without_test_loss(self, tmp_path):
        rows = [(0, -1.5, -1.25), (1, -2.0, None), (2, -2.25, -2.0)]
        path = tmp_path / "loss.csv"
        write_loss_csv(path, rows)
        back = read_loss(path)
        assert back["epoch"].tolist() == [0, 1, 2]
        assert back["train_loss"].tolist() == [-1.5, -2.0, -2.25]
        np.testing.assert_array_equal(back["test_loss"], [-1.25, np.nan, -2.0])

    def test_float_repr_is_exact(self, tmp_path):
        value = -38.89416712345678
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [(0, value, value / 3)])
        (epoch, train, test), = read_loss(path)
        assert train == value and test == value / 3


class TestPrCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "pr.csv"
        write_pr_csv(path, [0, 1], [0.25, 1.0], [1.0, 0.5])
        assert path.read_text() == (
            "threshold,recall,precision\n0,0.25,1.0\n1,1.0,0.5\n"
        )


class TestManifestAndConfig:
    def test_manifest_sorted(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, {"zeta": 1, "alpha": "x", "mid": 2.5})
        assert path.read_text() == "alpha=x\nmid=2.5\nzeta=1\n"

    def test_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\n\nlr=0.0003\nbits=32\n")
        assert read_config(path) == {"lr": "0.0003", "bits": "32"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr=1\nlr=2\n")
        with pytest.raises(ParseError) as err:
            read_config(path)
        assert err.value.line == 2

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr\n")
        with pytest.raises(ParseError) as err:
            read_config(path)
        assert err.value.line == 1


@pytest.mark.parametrize("read, head", [
    (read_labels, b"classes=2\n0\n"),
    (read_split, b"gallery+train\nquery\n"),
    (read_centers, b"B=2 C=2 epoch=0\n01\n"),
    (read_config, b"lr=1\r\n"),
    # A control byte does not end a line, so the count is unchanged.
    (read_labels, b"classes=2\n0\x1c1\n"),
    (read_split, b"query\x0bgallery\n"),
    (read_centers, b"B=2 C=2 epoch=0\x0c\n01\n"),
    (read_config, b"lr=1\x1e\r\n"),
], ids=["labels", "split", "centers", "config",
        "labels-control", "split-control", "centers-control",
        "config-control"])
def test_non_ascii_byte_names_its_line(tmp_path, read, head):
    path = tmp_path / "file.txt"
    path.write_bytes(head + b"1\xff\n")
    with pytest.raises(ParseError) as err:
        read(path)
    line = head.count(b"\n") + 1
    assert str(err.value) == f"{path}:{line}: non-ASCII byte 0xff"


@pytest.mark.parametrize("read, text, line, byte", [
    (read_labels, b"classes=2\n0\n1\x1c1\n", 3, 0x1c),
    (read_labels, b"classes=2\n0\x0c\n1\n", 2, 0x0c),
    (read_labels, b"classes=2\n0\r\r\n1\r\n", 2, 0x0d),
    (read_labels, b"classes=2\r0\n1\n", 1, 0x0d),
    (read_split, b"query\x0bgallery\n", 1, 0x0b),
    (read_split, b"query\ngallery\r", 2, 0x0d),
    (read_centers, b"B=2 C=2 epoch=0\x0b\n01\n10\n", 1, 0x0b),
    (read_centers, b"B=2 C=2 epoch=0\n01\r10\n", 2, 0x0d),
    (read_config, b"lr=1\n\x00\n", 2, 0x00),
], ids=["labels-inner", "labels-trailing", "labels-cr-crlf", "labels-lone-cr",
        "split-vt", "split-final-cr", "centers-header", "centers-lone-cr",
        "config-nul"])
def test_control_byte_names_its_line(tmp_path, read, text, line, byte):
    """Lines end only at `\\n` or `\\r\\n`; any other control byte but
    tab is rejected on its own line, where `int()`, `float()`, `split()`
    or `strip()` would have dropped a trailing one silently."""
    path = tmp_path / "file.txt"
    path.write_bytes(text)
    with pytest.raises(ParseError) as err:
        read(path)
    assert str(err.value) == f"{path}:{line}: control byte {byte:#04x}"


@pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("last", [True, False], ids=["final-end", "no-final-end"])
def test_line_ends_read_alike(tmp_path, end, last):
    def write(name, lines):
        path = tmp_path / name
        path.write_bytes(end.join(lines) + (end if last else b""))
        return path

    labels, C = read_labels(write("l.txt", [b"classes=3", b"0,2", b"1"]))
    assert C == 3 and labels == [(0, 2), (1,)]
    np.testing.assert_array_equal(
        read_split(write("s.txt", [b"query", b"gallery+train"])),
        roles("query", "gallery+train"),
    )
    centers = read_centers(write("c.txt", [b"B=3 C=2 epoch=4", b"011", b"100"]))
    np.testing.assert_array_equal(centers.codes, [[0, 1, 1], [1, 0, 0]])
    assert centers.epoch == 4
    assert read_config(write("k.txt", [b"lr=1", b"", b"bits=8"])) == {
        "lr": "1", "bits": "8"}
