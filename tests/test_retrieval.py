import numpy as np
import pytest

from dcsh.data import label_classes
from dcsh.errors import ConfigurationError, DimensionError, LabelError
from dcsh.retrieval import (
    PackedCodeIndex,
    average_precision,
    map_at_k,
    pack_codes,
    pr_curve,
    query_topk,
    relevance_mask,
    unpack_codes,
)


def naive_hamming(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


def width_mismatch_pair():
    """B=32 queries against a B=40 gallery: both fit in one 64-bit word."""
    g = PackedCodeIndex.from_bits(
        np.zeros((3, 40), dtype=np.uint8), ids=[0, 1, 2], labels=[[0]] * 3
    )
    q = PackedCodeIndex.from_bits(
        np.zeros((2, 32), dtype=np.uint8), ids=[9, 10], labels=[[0]] * 2
    )
    return q, g


class TestPacking:
    @pytest.mark.parametrize("B", [1, 7, 12, 63, 64, 65, 67, 128, 130])
    def test_roundtrip(self, B):
        rng = np.random.default_rng(B)
        bits = rng.integers(0, 2, size=(9, B), dtype=np.uint8)
        words = pack_codes(bits)
        assert words.shape == (9, (B + 63) // 64)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(unpack_codes(words, B), bits)

    def test_bit_layout(self):
        bits = np.zeros((1, 64), dtype=np.uint8)
        bits[0, 0] = 1
        assert pack_codes(bits)[0, 0] == 1
        bits = np.zeros((1, 64), dtype=np.uint8)
        bits[0, 63] = 1
        assert pack_codes(bits)[0, 0] == np.uint64(1) << np.uint64(63)
        bits = np.zeros((1, 65), dtype=np.uint8)
        bits[0, 64] = 1
        row = pack_codes(bits)[0]
        assert row[0] == 0 and row[1] == 1

    def test_padding_bits_are_zero(self):
        bits = np.ones((3, 67), dtype=np.uint8)
        words = pack_codes(bits)
        assert words.shape == (3, 2)
        assert np.all(words[:, 1] == np.uint64(0b111))

    def test_non_binary_rejected(self):
        for bad in ([[0, 2]], [[0.0, 1.0, 0.5]], [[0.0, 1.0, np.nan]],
                    [[0, -1]], np.array([[0, 2]], dtype=np.uint8),
                    np.array([[1, 2**64 - 1]], dtype=np.uint64)):
            with pytest.raises(DimensionError):
                pack_codes(np.array(bad))

    def test_wrong_word_count_rejected(self):
        with pytest.raises(DimensionError):
            unpack_codes(np.zeros((2, 2), dtype=np.uint64), 64)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint64, np.int64,
                                       np.float64])
    def test_binary_dtypes_pack_alike(self, dtype):
        bits = np.random.default_rng(5).integers(0, 2, size=(6, 70))
        np.testing.assert_array_equal(pack_codes(bits.astype(dtype)),
                                      pack_codes(bits.astype(np.uint8)))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.float64])
    def test_empty_matrix(self, dtype):
        words = pack_codes(np.zeros((0, 70), dtype=dtype))
        assert words.shape == (0, 2) and words.dtype == np.uint64
        assert unpack_codes(words, 70).shape == (0, 70)


class TestHamming:
    """The one-query Hamming distance, `PackedCodeIndex.distances`."""

    def test_examples(self):
        idx = PackedCodeIndex.from_bits([[1, 1, 1, 1], [1, 0, 1, 0]], ids=[0, 1])
        assert idx.distances("0000").tolist() == [4, 2]
        assert idx.distances("1010").tolist() == [2, 0]
        assert idx.distances("1000").tolist() == [3, 1]
        assert idx.distances([1, 0, 1, 0]).tolist() == [2, 0]
        assert idx.distances(np.array([0, 1, 1, 1])).tolist() == [1, 3]

    def test_length_mismatch_rejected(self):
        idx = PackedCodeIndex.from_bits([[1, 0, 1, 0]], ids=[0])
        for code in ("101", "10100", [1, 0, 1], ""):
            with pytest.raises(DimensionError):
                idx.distances(code)

    def test_bad_characters_rejected(self):
        idx = PackedCodeIndex.from_bits([[1, 0, 1, 0]], ids=[0])
        for code in ("10x0", "1020", "10 0", "10\u00e90"):
            with pytest.raises(DimensionError):
                idx.distances(code)

    @pytest.mark.parametrize("B", [1, 12, 16, 24, 32, 48, 63, 64, 65, 67, 128])
    def test_against_bit_loop(self, B):
        rng = np.random.default_rng(B)
        rows = 10_000 // 7 + 1
        A = rng.integers(0, 2, size=(rows, B), dtype=np.uint8)
        C = rng.integers(0, 2, size=(rows, B), dtype=np.uint8)
        idx = PackedCodeIndex.from_bits(C, ids=np.arange(rows))
        for i in rng.choice(rows, size=20, replace=False):
            want = [naive_hamming(A[i], c) for c in C]
            assert idx.distances(A[i]).tolist() == want


@pytest.mark.parametrize("B", [1, 63, 64, 65, 67, 128])
def test_distances_match_bit_loop(B):
    rng = np.random.default_rng(100 + B)
    bits = rng.integers(0, 2, size=(40, B), dtype=np.uint8)
    bits[1] = bits[0]  # one pair at distance 0
    idx = PackedCodeIndex.from_bits(bits, ids=np.arange(40))
    for q in bits[:5]:
        want = [naive_hamming(q, row) for row in bits]
        assert idx.distances(q).tolist() == want
        assert idx.distances("".join(map(str, q))).tolist() == want


class TestPackedCodeIndex:
    def test_from_bits(self):
        bits = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
        idx = PackedCodeIndex.from_bits(bits, ids=[5, 9])
        assert idx.N == 2 and idx.B == 3
        np.testing.assert_array_equal(idx.distances([1, 0, 1]), [0, 2])

    def test_duplicate_ids_rejected(self):
        bits = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            PackedCodeIndex.from_bits(bits, ids=[1, 1])

    def test_dirty_high_bits_rejected(self):
        words = np.array([[np.uint64(1) << np.uint64(40)]], dtype=np.uint64)
        with pytest.raises(DimensionError):
            PackedCodeIndex(words, B=8, ids=[0])

    def test_wrong_query_width_rejected(self):
        idx = PackedCodeIndex.from_bits(np.zeros((2, 5), dtype=np.uint8), [0, 1])
        with pytest.raises(DimensionError):
            idx.distances([0, 1])

    def test_immutable(self):
        idx = PackedCodeIndex.from_bits(np.zeros((2, 5), dtype=np.uint8), [0, 1])
        with pytest.raises(ValueError):
            idx.words[0, 0] = 1

    def test_callers_arrays_stay_writeable(self):
        words = np.zeros((2, 1), dtype=np.uint64)
        ids = np.array([0, 1], dtype=np.int64)
        idx = PackedCodeIndex(words, 8, ids)
        assert np.shares_memory(idx.words, words)
        assert words.flags.writeable and ids.flags.writeable
        assert not idx.words.flags.writeable and not idx.ids.flags.writeable

    @pytest.mark.parametrize("labels, single", [
        ([[2], [0], [2]], True),
        ([[0, 3], [1], [3, 0]], False),
        ([], True),
    ])
    def test_label_facts_from_lists_or_label_sets(self, labels, single):
        bits = np.zeros((len(labels), 4), dtype=np.uint8)
        ids = np.arange(len(labels))
        plain = PackedCodeIndex.from_bits(bits, ids, labels=labels)
        sets = PackedCodeIndex.from_bits(
            bits, ids, labels=[label_classes(l) for l in labels]
        )
        assert plain.single_label is sets.single_label is single
        np.testing.assert_array_equal(plain.incidence, sets.incidence)
        width = 1 + max((max(l) for l in labels), default=-1)
        assert plain.incidence.shape == (len(labels), width)

    def test_invalid_label_set_rejected(self):
        bits = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(LabelError):
            PackedCodeIndex.from_bits(bits, [0, 1], labels=[[0], [1, 1]])
        with pytest.raises(DimensionError):
            PackedCodeIndex.from_bits(bits, [0, 1], labels=[[0]])


class TestQueryTopk:
    def gallery(self):
        bits = np.array([
            [0, 0, 0],
            [0, 1, 1],
            [1, 1, 1],
        ], dtype=np.uint8)
        return PackedCodeIndex.from_bits(bits, ids=[10, 20, 30])

    def test_order_and_distances(self):
        out = query_topk(self.gallery(), [0, 0, 1], 3)
        np.testing.assert_array_equal(out.ids, [10, 20, 30])
        np.testing.assert_array_equal(out.distances, [1, 1, 2])
        assert not out.clipped

    def test_self_match_ranks_first(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(50, 16), dtype=np.uint8)
        idx = PackedCodeIndex.from_bits(bits, ids=np.arange(50))
        for i in (0, 17, 49):
            out = query_topk(idx, bits[i], 1)
            assert out.distances[0] == 0

    def test_tie_break_ignores_storage_order(self):
        # rows with ids 5 and 2 tie at distance 1; ascending id wins
        bits = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.uint8)
        a = PackedCodeIndex.from_bits(bits, ids=[7, 5, 2])
        b = PackedCodeIndex.from_bits(bits[::-1], ids=[2, 5, 7])
        ra = query_topk(a, [0, 0], 3)
        rb = query_topk(b, [0, 0], 3)
        np.testing.assert_array_equal(ra.ids, rb.ids)
        np.testing.assert_array_equal(ra.distances, rb.distances)
        np.testing.assert_array_equal(ra.ids, [7, 2, 5])
        np.testing.assert_array_equal(ra.distances, [0, 1, 1])

    def test_clipped_flag(self):
        out = query_topk(self.gallery(), [0, 0, 0], 10)
        assert out.clipped and out.ids.shape == (3,)

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigurationError):
            query_topk(self.gallery(), [0, 0, 0], 0)

    @pytest.mark.parametrize("bad", [0.5, 2.0, np.nan])
    def test_non_binary_query_rejected(self, bad):
        with pytest.raises(DimensionError):
            query_topk(self.gallery(), [0.0, 1.0, bad], 3)

    @pytest.mark.parametrize("bad", ["0 1", "012", "01é", "0\udcff1"])
    def test_non_binary_string_rejected(self, bad):
        with pytest.raises(DimensionError, match="0/1 characters"):
            query_topk(self.gallery(), bad, 3)

    def test_empty_string_rejected(self):
        with pytest.raises(DimensionError, match="non-empty bit vector"):
            query_topk(self.gallery(), "", 3)


class TestRank:
    """`query_topk` and `map_at_k` against `np.lexsort((ids, d))[:k]`,
    with distances and relevance computed from the bits and labels alone."""

    N = 300

    @staticmethod
    def reference(bits, ids, q):
        d = (bits != q).sum(axis=1)
        return np.lexsort((ids, d)), d

    def case(self, B, half_tied):
        rng = np.random.default_rng(B)
        bits = rng.integers(0, 2, size=(self.N, B), dtype=np.uint8)
        if half_tied:
            # half the rows share bits[0]: querying it puts >= 150 rows at d = 0
            bits[rng.permutation(self.N)[: self.N // 2]] = bits[0]
        ids = rng.choice(50 * self.N, size=self.N, replace=False)
        classes = rng.integers(0, 3, size=self.N)
        q_bits = np.vstack([bits[:1], rng.integers(0, 2, size=(5, B))])
        q_classes = rng.integers(0, 3, size=q_bits.shape[0])
        gallery = PackedCodeIndex.from_bits(
            bits, ids, labels=[[c] for c in classes]
        )
        queries = PackedCodeIndex.from_bits(
            q_bits, np.arange(q_bits.shape[0]),
            labels=[[c] for c in q_classes],
        )
        return bits, ids, classes, q_bits, q_classes, gallery, queries

    # B = 130 and below give uint8 distances, B = 200 uint16
    @pytest.mark.parametrize("B", [1, 3, 8, 67, 130, 200])
    @pytest.mark.parametrize("half_tied", [False, True])
    @pytest.mark.parametrize("k", [1, 100, N, N + 7])
    def test_matches_lexsort(self, B, half_tied, k):
        bits, ids, classes, q_bits, q_classes, gallery, queries = self.case(
            B, half_tied
        )
        aps = []
        for q, c in zip(q_bits, q_classes):
            order, d = self.reference(bits, ids, q)
            out = query_topk(gallery, q, k)
            np.testing.assert_array_equal(out.ids, ids[order[:k]])
            np.testing.assert_array_equal(out.distances, d[order[:k]])
            assert out.clipped == (k > self.N)
            rel = classes == c
            aps.append(average_precision(rel[order[:k]], int(rel.sum())))
        out = map_at_k(queries, gallery, k, "same-class")
        np.testing.assert_array_equal(out.aps, aps)

    def test_empty_gallery(self):
        empty = PackedCodeIndex.from_bits(np.zeros((0, 8), dtype=np.uint8), [])
        out = query_topk(empty, "01010101", 5)
        assert out.ids.shape == out.distances.shape == (0,)
        assert out.clipped

    @pytest.mark.parametrize("k", [1, 100, 2000])
    def test_all_identical_gallery(self, k):
        # every row ties at t, so the whole gallery is sorted by id
        rng = np.random.default_rng(3)
        bits = np.tile(rng.integers(0, 2, size=16, dtype=np.uint8), (2000, 1))
        ids = rng.permutation(2000) * 3 + 1
        gallery = PackedCodeIndex.from_bits(bits, ids)
        for q in (bits[0], 1 - bits[0]):
            order, d = self.reference(bits, ids, q)
            out = query_topk(gallery, q, k)
            np.testing.assert_array_equal(out.ids, ids[order[:k]])
            np.testing.assert_array_equal(out.ids, np.sort(ids)[:k])
            np.testing.assert_array_equal(out.distances, d[order[:k]])

    @pytest.mark.parametrize("B", [8, 64, 200])
    @pytest.mark.parametrize("k", [1, 30, 31, 100, 1000, 2029, 2030, 3000])
    def test_tie_block_straddles_k(self, B, k):
        # 30 rows at d = 0, 2000 at d = 1, the rest at d >= 2: k = 31..2029
        # cuts the block at d = 1, and k <= 1517 leaves more than 512 rows
        # of it beyond k, so the block is trimmed before the sort; then a
        # gallery of 3000 identical codes, where every row ties.
        rng = np.random.default_rng(B)
        q = rng.integers(0, 2, size=B, dtype=np.uint8)
        near = np.tile(q, (2030, 1))
        near[np.arange(30, 2030), rng.integers(0, B, size=2000)] ^= 1
        far = rng.integers(0, 2, size=(970, B), dtype=np.uint8)
        far[:, :2] = 1 - q[:2]
        ids = rng.permutation(3000) * 7 - 9000
        for bits in (np.vstack([near, far])[rng.permutation(3000)],
                     np.tile(q, (3000, 1))):
            order, d = self.reference(bits, ids, q)
            out = query_topk(PackedCodeIndex.from_bits(bits, ids), q, k)
            np.testing.assert_array_equal(out.ids, ids[order[:k]])
            np.testing.assert_array_equal(out.distances, d[order[:k]])


class TestAveragePrecision:
    def test_hand_case(self):
        # hits at ranks 1 and 3: (1/1 + 2/3) / 2
        assert abs(average_precision([1, 0, 1], 2) - 0.8333333333333333) < 1e-12

    def test_all_relevant(self):
        assert average_precision([1, 1, 1, 1], 4) == 1.0

    def test_none_relevant_in_gallery(self):
        assert average_precision([0, 0, 0], 0) == 0.0

    def test_excess_R_total_uses_list_length(self):
        # two hits, R_total 5 but only 3 ranks: denominator 3
        want = (1.0 + 2 / 3) / 3
        assert abs(average_precision([1, 0, 1], 5) - want) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            rel = rng.integers(0, 2, size=n)
            R_total = int(rng.integers(0, 50))
            hits = 0
            acc = 0.0
            for rank, r in enumerate(rel, start=1):
                if r:
                    hits += 1
                    acc += hits / rank
            denom = min(R_total, n)
            want = acc / denom if denom else 0.0
            assert abs(average_precision(rel, R_total) - want) < 1e-12

    def test_bad_entries_rejected(self):
        with pytest.raises(DimensionError):
            average_precision([1, 2], 1)
        with pytest.raises(ConfigurationError):
            average_precision([1, 0], -1)


class TestRelevanceMask:
    def labeled_gallery(self, labels):
        bits = np.zeros((len(labels), 4), dtype=np.uint8)
        return PackedCodeIndex.from_bits(
            bits, ids=np.arange(len(labels)), labels=labels
        )

    def test_same_class(self):
        g = self.labeled_gallery([[0], [1], [0]])
        np.testing.assert_array_equal(
            relevance_mask([0], g, "same-class"), [True, False, True]
        )

    def test_same_class_rejects_multilabel(self):
        g = self.labeled_gallery([[0, 1], [1]])
        with pytest.raises(LabelError):
            relevance_mask([0], g, "same-class")
        g = self.labeled_gallery([[0], [1]])
        with pytest.raises(LabelError):
            relevance_mask([0, 1], g, "same-class")

    def test_share_any(self):
        g = self.labeled_gallery([[0, 1], [2], [1, 3]])
        np.testing.assert_array_equal(
            relevance_mask([1, 2], g, "share-any-label"), [True, True, True]
        )
        np.testing.assert_array_equal(
            relevance_mask([3], g, "share-any-label"), [False, False, True]
        )

    @pytest.mark.parametrize("rule", ["same-class", "share-any-label"])
    def test_single_class_is_a_read_only_column(self, rule):
        labels = [[0], [2], [0], [1], [2]]
        g = self.labeled_gallery(labels)
        mask = relevance_mask([2], g, rule)
        np.testing.assert_array_equal(mask, [l == [2] for l in labels])
        assert np.shares_memory(mask, g.incidence)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = True
        np.testing.assert_array_equal(
            g.incidence[:, 2], [False, True, False, False, True]
        )

    def test_unknown_rule_rejected(self):
        g = self.labeled_gallery([[0]])
        with pytest.raises(ConfigurationError):
            relevance_mask([0], g, "exact-match")

    def test_unlabeled_gallery_rejected(self):
        bits = np.zeros((2, 4), dtype=np.uint8)
        g = PackedCodeIndex.from_bits(bits, ids=[0, 1])
        with pytest.raises(ConfigurationError):
            relevance_mask([0], g, "same-class")


class TestMapAtK:
    def test_identity_gallery_is_perfect(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(20, 16), dtype=np.uint8)
        labels = [[int(i % 4)] for i in range(20)]
        g = PackedCodeIndex.from_bits(bits, ids=np.arange(20), labels=labels)
        # queries identical to their class codes: every class maps to one code
        class_bits = np.array([bits[c] for c in range(4)])
        q = PackedCodeIndex.from_bits(
            class_bits, ids=np.arange(100, 104), labels=[[c] for c in range(4)]
        )
        # identical codes per class would be needed for MAP 1; instead check
        # the degenerate single-relevant setup below
        unique_labels = [[i] for i in range(20)]
        g1 = PackedCodeIndex.from_bits(bits, ids=np.arange(20),
                                       labels=unique_labels)
        q1 = PackedCodeIndex.from_bits(bits, ids=np.arange(200, 220),
                                       labels=unique_labels)
        out = map_at_k(q1, g1, k=20, rule="same-class")
        assert out.map == 1.0
        np.testing.assert_array_equal(out.aps, np.ones(20))

    def test_hand_case_mean(self):
        bits = np.array([
            [0, 0, 0, 0],
            [1, 1, 1, 1],
            [0, 0, 0, 1],
            [1, 1, 1, 0],
        ], dtype=np.uint8)
        g = PackedCodeIndex.from_bits(
            bits, ids=[0, 1, 2, 3], labels=[[0], [1], [0], [1]]
        )
        q = PackedCodeIndex.from_bits(
            np.array([[0, 0, 0, 0], [0, 1, 1, 1]], dtype=np.uint8),
            ids=[10, 11],
            labels=[[0], [1]],
        )
        out = map_at_k(q, g, k=2, rule="same-class")
        # query 10: ranks id 0 (d=0) then id 2 (d=1), both class 0 -> AP 1
        # query 11: ranks id 1 (d=1) then id 2 (d=2, ties id 3 but wins on
        # id); only rank 1 is class 1 -> AP (1/1) / 2 = 0.5
        np.testing.assert_allclose(out.aps, [1.0, 0.5])
        assert abs(out.map - 0.75) < 1e-12
        out4 = map_at_k(q, g, k=4, rule="same-class")
        # query 11 at k=4 ranks id 1, 2, 3, 0: hits at 1 and 3
        np.testing.assert_allclose(out4.aps, [1.0, (1.0 + 2 / 3) / 2])

    def test_mixed_ranking_mean(self):
        g = PackedCodeIndex.from_bits(
            np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8),
            ids=[0, 1, 2],
            labels=[[0], [1], [0]],
        )
        q = PackedCodeIndex.from_bits(
            np.array([[0, 0]], dtype=np.uint8), ids=[9], labels=[[0]]
        )
        out = map_at_k(q, g, k=3, rule="same-class")
        # ranking: id 0 (d0, rel), id 1 (d1, not), id 2 (d2, rel)
        assert abs(out.map - (1.0 + 2 / 3) / 2) < 1e-12

    def test_k_truncates_denominator(self):
        g = PackedCodeIndex.from_bits(
            np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8),
            ids=[0, 1, 2],
            labels=[[0], [0], [0]],
        )
        q = PackedCodeIndex.from_bits(
            np.array([[0, 0]], dtype=np.uint8), ids=[9], labels=[[0]]
        )
        out = map_at_k(q, g, k=2, rule="same-class")
        # top 2 both relevant, denominator min(3, 2) = 2
        assert out.map == 1.0

    def test_share_any_rule(self):
        g = PackedCodeIndex.from_bits(
            np.array([[0, 0], [1, 1]], dtype=np.uint8),
            ids=[0, 1],
            labels=[[0, 1], [2]],
        )
        q = PackedCodeIndex.from_bits(
            np.array([[0, 0]], dtype=np.uint8), ids=[9], labels=[[1, 2]]
        )
        out = map_at_k(q, g, k=2, rule="share-any-label")
        # both gallery rows relevant, ranked id 0 then id 1 -> AP 1
        assert out.map == 1.0

    def test_unlabeled_queries_rejected(self):
        g = PackedCodeIndex.from_bits(
            np.zeros((1, 2), dtype=np.uint8), ids=[0], labels=[[0]]
        )
        q = PackedCodeIndex.from_bits(np.zeros((1, 2), dtype=np.uint8), ids=[1])
        with pytest.raises(ConfigurationError):
            map_at_k(q, g, k=1, rule="same-class")

    def test_bit_width_mismatch_rejected(self):
        q, g = width_mismatch_pair()
        with pytest.raises(DimensionError):
            map_at_k(q, g, k=3, rule="same-class")


class TestPrCurve:
    def test_hand_case(self):
        g = PackedCodeIndex.from_bits(
            np.array([[0, 0], [0, 1]], dtype=np.uint8),
            ids=[0, 1],
            labels=[[0], [1]],
        )
        q = PackedCodeIndex.from_bits(
            np.array([[0, 0]], dtype=np.uint8), ids=[9], labels=[[0]]
        )
        thresholds, recalls, precisions = pr_curve(q, g, "same-class")
        np.testing.assert_array_equal(thresholds, [0, 1, 2])
        # t=0 retrieves the exact match only: precision 1, recall 1
        # t=1 adds the other row: precision 1/2, recall 1
        np.testing.assert_allclose(precisions, [1.0, 0.5, 0.5])
        np.testing.assert_allclose(recalls, [1.0, 1.0, 1.0])

    def test_empty_retrieval_counts_precision_one(self):
        g = PackedCodeIndex.from_bits(
            np.array([[1, 1]], dtype=np.uint8), ids=[0], labels=[[0]]
        )
        q = PackedCodeIndex.from_bits(
            np.array([[0, 0]], dtype=np.uint8), ids=[9], labels=[[0]]
        )
        thresholds, recalls, precisions = pr_curve(q, g, "same-class")
        np.testing.assert_allclose(precisions, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(recalls, [0.0, 0.0, 1.0])

    def test_recall_non_decreasing_and_complete(self):
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2, size=(60, 24), dtype=np.uint8)
        labels = [[int(i % 5)] for i in range(60)]
        g = PackedCodeIndex.from_bits(bits, ids=np.arange(60), labels=labels)
        qbits = rng.integers(0, 2, size=(12, 24), dtype=np.uint8)
        qlabels = [[int(i % 5)] for i in range(12)]
        q = PackedCodeIndex.from_bits(
            qbits, ids=np.arange(100, 112), labels=qlabels
        )
        thresholds, recalls, precisions = pr_curve(q, g, "same-class")
        assert thresholds.shape == (25,)
        assert np.all(np.diff(recalls) >= -1e-15)
        assert recalls[-1] == 1.0
        assert np.all((0 <= precisions) & (precisions <= 1))

    def test_queries_without_relevant_rows_skipped(self):
        g = PackedCodeIndex.from_bits(
            np.array([[0, 0]], dtype=np.uint8), ids=[0], labels=[[0]]
        )
        q = PackedCodeIndex.from_bits(
            np.array([[0, 0], [1, 1]], dtype=np.uint8),
            ids=[9, 10],
            labels=[[0], [1]],
        )
        thresholds, recalls, precisions = pr_curve(q, g, "same-class")
        # only the class-0 query counts
        np.testing.assert_allclose(recalls, [1.0, 1.0, 1.0])

    def test_no_countable_query_rejected(self):
        g = PackedCodeIndex.from_bits(
            np.array([[0, 0]], dtype=np.uint8), ids=[0], labels=[[0]]
        )
        q = PackedCodeIndex.from_bits(
            np.array([[0, 0]], dtype=np.uint8), ids=[9], labels=[[1]]
        )
        with pytest.raises(ConfigurationError):
            pr_curve(q, g, "same-class")

    def test_bit_width_mismatch_rejected(self):
        q, g = width_mismatch_pair()
        with pytest.raises(DimensionError):
            pr_curve(q, g, "same-class")


class TestBruteForceOracle:
    """Ranking and relevance against a reference that uses neither the
    index's id order nor its label table: `np.lexsort((ids, d))` and a
    Python loop over every gallery label set."""

    B = 10
    K = 40

    @staticmethod
    def reference_relevance(query_labels, gallery_labels, rule):
        if rule == "same-class":
            return np.array([l[0] == query_labels[0] for l in gallery_labels])
        q = set(query_labels)
        return np.array([not q.isdisjoint(l) for l in gallery_labels])

    def gallery(self, multi, B=B):
        # 500 rows of 10 bits: every distance is shared by dozens of rows,
        # so the top-k boundary always falls inside a tie. Ids are
        # non-contiguous and stored shuffled; class 4 is never used.
        rng = np.random.default_rng(77)
        n = 500
        bits = rng.integers(0, 2, size=(n, B), dtype=np.uint8)
        ids = rng.choice(100_000, size=n, replace=False)
        classes = np.array([0, 1, 2, 3, 5, 6])
        labels = [
            sorted(rng.choice(classes, size=rng.integers(1, 4) if multi else 1,
                              replace=False).tolist())
            for _ in range(n)
        ]
        return bits, ids, labels

    def queries(self, multi, B=B):
        rng = np.random.default_rng(78)
        n = 30
        bits = rng.integers(0, 2, size=(n, B), dtype=np.uint8)
        # includes class 4 (carried by no gallery row) and 9 (above the
        # gallery's largest class)
        pool = np.array([0, 1, 2, 3, 4, 5, 6, 9])
        labels = [
            sorted(rng.choice(pool, size=rng.integers(1, 3) if multi else 1,
                              replace=False).tolist())
            for _ in range(n)
        ]
        labels[0], labels[1] = [4], [9]
        return bits, np.arange(1000, 1000 + n), labels

    def reference_distances(self, g_bits, q_bits):
        return (q_bits[:, None, :] != g_bits[None, :, :]).sum(axis=2)

    @staticmethod
    def reference_pr(dists, rels, B):
        """Macro-averaged (recall, precision) at thresholds 0..B by
        counting rows with d <= t for each t, over queries with a
        relevant row."""
        precision_sum = np.zeros(B + 1)
        recall_sum = np.zeros(B + 1)
        counted = 0
        for d, rel in zip(dists, rels):
            if not rel.any():
                continue
            retrieved = np.array([(d <= t).sum() for t in range(B + 1)])
            hits = np.array([(rel & (d <= t)).sum() for t in range(B + 1)])
            precision_sum += np.where(
                retrieved > 0, hits / np.maximum(retrieved, 1), 1.0
            )
            recall_sum += hits / rel.sum()
            counted += 1
        return recall_sum / counted, precision_sum / counted

    @pytest.mark.parametrize("multi", [False, True])
    def test_query_topk(self, multi):
        g_bits, g_ids, g_labels = self.gallery(multi)
        q_bits, _, _ = self.queries(multi)
        index = PackedCodeIndex.from_bits(g_bits, g_ids, labels=g_labels)
        for q, d in zip(q_bits, self.reference_distances(g_bits, q_bits)):
            order = np.lexsort((g_ids, d))
            assert d[order[self.K - 1]] == d[order[self.K]]  # tie at k
            out = query_topk(index, q, self.K)
            np.testing.assert_array_equal(out.ids, g_ids[order[:self.K]])
            np.testing.assert_array_equal(out.distances, d[order[:self.K]])

    @pytest.mark.parametrize("multi, rule", [
        (False, "same-class"), (False, "share-any-label"),
        (True, "share-any-label"),
    ])
    def test_relevance_map_and_pr(self, multi, rule):
        g_bits, g_ids, g_labels = self.gallery(multi)
        q_bits, q_ids, q_labels = self.queries(multi)
        gallery = PackedCodeIndex.from_bits(g_bits, g_ids, labels=g_labels)
        queries = PackedCodeIndex.from_bits(q_bits, q_ids, labels=q_labels)
        dists = self.reference_distances(g_bits, q_bits)
        aps = []
        rels = []
        for labels, d in zip(q_labels, dists):
            rel = self.reference_relevance(labels, g_labels, rule)
            np.testing.assert_array_equal(
                relevance_mask(labels, gallery, rule), rel
            )
            order = np.lexsort((g_ids, d))[:self.K]
            aps.append(average_precision(rel[order], int(rel.sum())))
            rels.append(rel)
        out = map_at_k(queries, gallery, self.K, rule)
        np.testing.assert_array_equal(out.aps, aps)
        assert out.aps[0] == out.aps[1] == 0.0  # classes 4 and 9
        _, recalls, precisions = pr_curve(queries, gallery, rule)
        want_r, want_p = self.reference_pr(dists, rels, self.B)
        np.testing.assert_allclose(recalls, want_r, rtol=1e-12)
        np.testing.assert_allclose(precisions, want_p, rtol=1e-12)

    # 127 is the widest code whose PR key (distance + relevance * (B + 1))
    # fits in uint8; from 128 on the key is uint16, and 130 and 200 take
    # 3 and 4 words per code.
    @pytest.mark.parametrize("B", [127, 128, 130, 200])
    @pytest.mark.parametrize("multi, rule", [
        (False, "same-class"), (True, "share-any-label"),
    ])
    def test_pr_curve_wide_codes(self, B, multi, rule):
        g_bits, g_ids, g_labels = self.gallery(multi, B)
        q_bits, q_ids, q_labels = self.queries(multi, B)
        gallery = PackedCodeIndex.from_bits(g_bits, g_ids, labels=g_labels)
        queries = PackedCodeIndex.from_bits(q_bits, q_ids, labels=q_labels)
        rels = [self.reference_relevance(l, g_labels, rule) for l in q_labels]
        want_r, want_p = self.reference_pr(
            self.reference_distances(g_bits, q_bits), rels, B
        )
        thresholds, recalls, precisions = pr_curve(queries, gallery, rule)
        np.testing.assert_array_equal(thresholds, np.arange(B + 1))
        np.testing.assert_allclose(recalls, want_r, rtol=1e-12)
        np.testing.assert_allclose(precisions, want_p, rtol=1e-12)

    @pytest.mark.parametrize("rule", ["same-class", "share-any-label"])
    @pytest.mark.parametrize("classes", [[4], [9], [40]])
    def test_absent_class_is_never_relevant(self, rule, classes):
        g_bits, g_ids, g_labels = self.gallery(multi=False)
        gallery = PackedCodeIndex.from_bits(g_bits, g_ids, labels=g_labels)
        mask = relevance_mask(classes, gallery, rule)
        assert mask.dtype == bool and mask.shape == (gallery.N,)
        assert not mask.any()

    def test_storage_order_ignored(self):
        g_bits, g_ids, g_labels = self.gallery(multi=True)
        q_bits, _, _ = self.queries(multi=True)
        by_id = np.argsort(g_ids)
        shuffled = PackedCodeIndex.from_bits(g_bits, g_ids)
        ordered = PackedCodeIndex.from_bits(g_bits[by_id], g_ids[by_id])
        for q in q_bits:
            a = query_topk(shuffled, q, self.K)
            b = query_topk(ordered, q, self.K)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
