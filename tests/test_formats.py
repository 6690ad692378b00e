import numpy as np
import pytest

from dcsh.centers import HashCenterSet, gen_bernoulli_centers
from dcsh.data import gen_synthetic
from dcsh.errors import ParseError
from dcsh.formats import (
    read_centers,
    read_codes_packed,
    read_codes_text,
    read_config,
    read_features,
    read_labels,
    read_loss_csv,
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
from dcsh.retrieval import pack_codes


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
        assert [l.classes for l in labels] == [(0,), (1, 2), (3,)]

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
        assert [l.classes for l in labels] == [(0, 2), (1,), (0, 2), (1,)]
        assert labels[0] is labels[2] and labels[1] is labels[3]

    def test_bad_line_after_repeated_good_lines(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("classes=3\n" + "0,1\n2\n" * 4 + "0,3\n2\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 10
        assert str(err.value) == f"{path}:10: class index 3 >= C=3"


class TestSplit:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.txt"
        tags = ["query", "gallery+train", "gallery", "train"]
        write_split(path, tags)
        assert read_split(path) == tags

    def test_unknown_tag_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("query\ntest\n")
        with pytest.raises(ParseError) as err:
            read_split(path)
        assert err.value.line == 2


class TestDatasetIo:
    def test_roundtrip(self, tmp_path):
        ds = gen_synthetic(N=40, D=6, C=3, multilabel_p=0.3, seed=2)
        f, l, s = tmp_path / "f.bin", tmp_path / "l.txt", tmp_path / "s.txt"
        save_dataset(ds, f, l, s)
        back = load_dataset(f, l, s)
        np.testing.assert_array_equal(back.features, ds.features)
        assert back.labels == ds.labels
        assert back.tags == ds.tags
        assert back.C == ds.C

    def test_count_mismatch_names_offender(self, tmp_path):
        ds = gen_synthetic(N=10, D=6, C=3, seed=0)
        f, l, s = tmp_path / "f.bin", tmp_path / "l.txt", tmp_path / "s.txt"
        save_dataset(ds, f, l, s)
        write_labels(l, [[0]], C=3)
        with pytest.raises(ParseError) as err:
            load_dataset(f, l, s)
        assert err.value.path == str(l)
        save_dataset(ds, f, l, s)
        write_split(s, ["query"])
        with pytest.raises(ParseError) as err:
            load_dataset(f, l, s)
        assert err.value.path == str(s)


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

    def test_bad_character(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("B=4 C=3 epoch=0\n1010\n1210\n0101\n")
        with pytest.raises(ParseError) as err:
            read_centers(path)
        assert err.value.line == 3
        assert f"{path}:3: center line must be 4 chars of 0/1" == str(err.value)


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
        write_codes_packed(path, words, 40)
        with pytest.raises(ParseError):
            read_codes_packed(path)


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
        write_model(path, [(np.array([[np.inf]]), np.zeros(1))])
        with pytest.raises(ParseError):
            read_model(path)


class TestLossCsv:
    def test_roundtrip_with_and_without_test_loss(self, tmp_path):
        rows = [(0, -1.5, -1.25), (1, -2.0, None), (2, -2.25, -2.0)]
        path = tmp_path / "loss.csv"
        write_loss_csv(path, rows)
        assert read_loss_csv(path) == rows

    def test_float_repr_is_exact(self, tmp_path):
        value = -38.89416712345678
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [(0, value, value / 3)])
        (epoch, train, test), = read_loss_csv(path)
        assert train == value and test == value / 3

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("epoch,train_loss,test_loss\n0,-1.5\n")
        with pytest.raises(ParseError) as err:
            read_loss_csv(path)
        assert err.value.line == 2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("epoch,loss\n")
        with pytest.raises(ParseError):
            read_loss_csv(path)


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
