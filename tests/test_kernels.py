import numpy as np
import pytest

from dcsh import kernels
from dcsh.kernels import pack_codes


class TestNumpyKernels:
    def test_scan_known_values(self):
        gallery = np.array([[0], [1], [0b1011]], dtype=np.uint64)
        query = np.array([0], dtype=np.uint64)
        np.testing.assert_array_equal(
            kernels.scan_distances(gallery, query), [0, 1, 3]
        )

    def test_all_ones_word(self):
        gallery = np.array([[np.iinfo(np.uint64).max]], dtype=np.uint64)
        query = np.array([0], dtype=np.uint64)
        assert kernels.scan_distances(gallery, query)[0] == 64

    def test_multi_word_distance(self):
        # distances add up across the words of a multi-word code
        a = np.array([0b1100, 0], dtype=np.uint64)
        b = np.array([0b1010, 1], dtype=np.uint64)
        np.testing.assert_array_equal(kernels.scan_distances(a[None, :], b), [3])

    def test_word_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernels.scan_distances(
                np.zeros((2, 2), dtype=np.uint64), np.zeros(1, dtype=np.uint64)
            )

    def test_packed_codes_against_bit_loop(self):
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, size=(300, 67), dtype=np.uint8)
        words = pack_codes(bits)
        for _ in range(10):
            qbits = rng.integers(0, 2, size=67, dtype=np.uint8)
            naive = (bits != qbits[None, :]).sum(axis=1)
            np.testing.assert_array_equal(
                kernels.scan_distances(words, pack_codes(qbits[None, :])[0]),
                naive,
            )


class TestBlockedScan:
    """Galleries around the block edges, with blocks of a few words."""

    BLOCK_WORDS = 6

    @pytest.mark.parametrize("B", [64, 100, 192])  # W = 1, 2, 3
    def test_block_edges_against_bit_loop(self, monkeypatch, B):
        monkeypatch.setattr(kernels, "SCAN_BLOCK_WORDS", self.BLOCK_WORDS)
        step = self.BLOCK_WORDS // kernels.word_count(B)  # rows per block
        rng = np.random.default_rng(B)
        for n in (step - 1, step, step + 1, 3 * step + 1, 4 * step - 1):
            bits = rng.integers(0, 2, size=(n, B), dtype=np.uint8)
            qbits = rng.integers(0, 2, size=B, dtype=np.uint8)
            got = kernels.scan_distances(
                pack_codes(bits), pack_codes(qbits[None, :])[0]
            )
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, (bits != qbits).sum(axis=1))

    @pytest.mark.parametrize("n", [1, 3])  # one-shot, then blocked
    def test_every_bit_of_256_differs(self, monkeypatch, n):
        monkeypatch.setattr(kernels, "SCAN_BLOCK_WORDS", self.BLOCK_WORDS)
        ones = np.full(4, np.iinfo(np.uint64).max, dtype=np.uint64)
        got = kernels.scan_distances(np.zeros((n, 4), dtype=np.uint64), ones)
        assert got.dtype == np.uint16
        np.testing.assert_array_equal(got, [256] * n)

    def test_rows_wider_than_a_block(self, monkeypatch):
        monkeypatch.setattr(kernels, "SCAN_BLOCK_WORDS", 2)
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(5, 192), dtype=np.uint8)
        got = kernels.scan_distances(pack_codes(bits), pack_codes(bits[:1])[0])
        np.testing.assert_array_equal(got, (bits != bits[0]).sum(axis=1))

    @pytest.mark.parametrize("W, dtype", [(1, np.uint8), (3, np.uint8),
                                          (4, np.uint16)])
    def test_empty_gallery(self, W, dtype):
        got = kernels.scan_distances(np.zeros((0, W), dtype=np.uint64),
                                     np.zeros(W, dtype=np.uint64))
        assert got.shape == (0,) and got.dtype == dtype


class TestDispatch:
    def test_wrapper_validates_shapes(self):
        with pytest.raises(ValueError):
            kernels.scan_distances(np.zeros(3, dtype=np.uint64),
                                   np.zeros(3, dtype=np.uint64))
        with pytest.raises(ValueError):
            kernels.scan_distances(np.zeros((1, 1), dtype=np.uint64),
                                   np.zeros((1, 1), dtype=np.uint64))

    def test_wrapper_accepts_lists(self):
        np.testing.assert_array_equal(
            kernels.scan_distances([[0], [7]], [7]), [3, 0]
        )
