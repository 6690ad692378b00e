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
