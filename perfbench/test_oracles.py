"""Hand-computed cases for the benchmark's oracles.

Run with: python3 -m pytest perfbench -q
"""

import struct

import numpy as np
import pytest

import oracles


def test_loss_lower_bound():
    assert oracles.loss_lower_bound(32, 10) == -40   # -(10-1) - (32-1)
    assert oracles.loss_lower_bound(32, 20) == -50   # -(20-1) - 31
    assert oracles.loss_lower_bound(8, 20) == -14    # -(8-1) - 7


def test_hamming_matrix():
    g = np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 1, 1]], dtype=np.uint8)
    q = np.array([[1, 0, 1, 1], [0, 0, 0, 0]], dtype=np.uint8)
    assert oracles.hamming_matrix(q, g).tolist() == [[0, 4, 1], [3, 1, 4]]


def test_topk_orders_by_distance_then_id():
    d = np.array([2, 1, 1, 0, 2])
    ids = np.array([10, 4, 3, 7, 1])
    # (0, id 7), (1, id 3), (1, id 4), (2, id 1), (2, id 10)
    assert oracles.topk(d, ids, 3).tolist() == [3, 2, 1]
    assert oracles.topk(d, ids, 9).tolist() == [3, 2, 1, 4, 0]


def test_average_precision_uses_min_r_k():
    # hits at ranks 1 and 3: precisions 1/1 and 2/3
    assert oracles.average_precision([1, 0, 1, 0], 2) == pytest.approx(5 / 6)
    # R = 5 > k = 4, so the denominator is 4
    assert oracles.average_precision([1, 0, 1, 0], 5) == pytest.approx(5 / 12)
    assert oracles.average_precision([0, 0], 3) == 0.0
    assert oracles.average_precision([0, 0], 0) == 0.0


def test_pr_counts_per_threshold():
    d = np.array([0, 2, 1, 2, 3])
    rel = np.array([True, False, True, False, False])
    retrieved, hits = oracles.pr_counts(d, rel, 3)
    assert retrieved.tolist() == [1, 2, 4, 5]
    assert hits.tolist() == [1, 2, 2, 2]


def test_pr_curve_conventions():
    d = np.array([[0, 2, 1, 2, 3], [1, 1, 2, 2, 2], [0, 0, 0, 0, 0]])
    rel = np.array([
        [True, False, True, False, False],
        [False, True, False, False, True],
        [False] * 5,                       # no relevant code: skipped
    ])
    recall, precision = oracles.pr_curve(d, rel, 3)
    # query 0: recall 1/2, 1, 1, 1; precision 1, 1, 2/4, 2/5
    # query 1: nothing within 0, so precision 1; recall 0, 1/2, 1, 1;
    #          precision 1, 1/2, 2/5, 2/5
    assert recall.tolist() == pytest.approx([0.25, 0.75, 1.0, 1.0])
    assert precision.tolist() == pytest.approx([1.0, 0.75, 0.45, 0.4])


def test_relevance_rules():
    q = [(0,), (2,)]
    g = [(0,), (1,), (2,), (0,)]
    assert oracles.relevance(q, g, "same-class").tolist() == [
        [True, False, False, True], [False, False, True, False]]
    assert oracles.relevance(np.array([1]), np.array([1, 0]), "same-class").tolist() == [
        [True, False]]
    assert oracles.relevance([(0, 3)], [(1, 3), (2,), (0,)], "share-any-label").tolist() == [
        [True, False, True]]
    with pytest.raises(ValueError):
        oracles.relevance([(0, 1)], g, "same-class")


def test_text_codes():
    ids, bits = oracles.parse_text_codes("3\t0110\n5\t1000\n")
    assert ids.tolist() == [3, 5]
    assert bits.tolist() == [[0, 1, 1, 0], [1, 0, 0, 0]]
    with pytest.raises(ValueError):
        oracles.parse_text_codes("3\t0120\n")
    with pytest.raises(ValueError):
        oracles.parse_text_codes("3\t01\n4\t011\n")


def test_packed_layout_follows_readme():
    # bit j sits at bit (j mod 64) of word (j div 64)
    bits = np.zeros((3, 70), dtype=np.uint8)
    bits[0, 0] = 1
    bits[1, 64] = 1
    bits[2, 65] = bits[2, 1] = 1
    words = oracles.pack_bits(bits)
    assert words.tolist() == [[1, 0], [0, 1], [2, 2]]
    assert np.array_equal(oracles.unpack_words(words, 70), bits)
    blob = b"DCSHCODE" + struct.pack("<IQI", 1, 3, 70) + words.astype("<u8").tobytes()
    assert np.array_equal(oracles.parse_packed_codes(blob), bits)


def test_packed_rejects_bad_files():
    header = b"DCSHCODE" + struct.pack("<IQI", 1, 1, 3)
    with pytest.raises(ValueError):   # bit 3 set with B = 3
        oracles.parse_packed_codes(header + struct.pack("<Q", 8))
    with pytest.raises(ValueError):   # payload one word short
        oracles.parse_packed_codes(header)
    with pytest.raises(ValueError):
        oracles.parse_packed_codes(b"DCSHFEAT" + header[8:] + struct.pack("<Q", 1))
