import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from linext.gf2 import BitMatrix, parse_matrix, rank, serialize_matrix, systematize
from linext.pipeline import BitStream, linear_extract

from _naive import naive_matvec, naive_weight_counts, random_full_rank


def bm(*rows):
    return BitMatrix.from_rows(rows)


def matvec(G, x):
    """G·x for one vector: linear_extract on a one-block stream."""
    return linear_extract(G, BitStream(x)).bits.tolist()


@st.composite
def extraction_cases(draw):
    """A k x n matrix (n past 64 spans several words) and a stream of whole
    n-bit blocks plus a ragged tail shorter than n."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, 150))
    dense = draw(arrays(np.uint8, (k, n), elements=st.integers(0, 1)))
    nbits = n * draw(st.integers(0, 6)) + draw(st.integers(0, n - 1))
    bits = draw(arrays(np.uint8, nbits, elements=st.integers(0, 1)))
    return dense, bits


class TestBitContainers:
    def test_padding_bits_are_masked(self):
        m = BitMatrix(1, 3, np.array([[0xFF]], dtype="<u8"))
        assert m.to_dense().tolist() == [[1, 1, 1]]
        assert int(m.words[0, 0]) == 0b111

    def test_get_matches_dense(self):
        rng = np.random.default_rng(7)
        dense = rng.integers(0, 2, (5, 70), dtype=np.uint8)
        m = BitMatrix.from_dense(dense)
        for i in range(5):
            for j in range(0, 70, 7):
                assert m.get(i, j) == dense[i, j]

    def test_get_out_of_range(self):
        with pytest.raises(IndexError):
            bm("10").get(0, 2)

    def test_rows_cols_validation(self):
        with pytest.raises(ValueError):
            BitMatrix.from_dense(np.ones((3, 2), np.uint8))  # rows > cols
        with pytest.raises(ValueError):
            BitMatrix.from_rows(["10", "110"])

    def test_immutability(self):
        m = bm("101")
        with pytest.raises(ValueError):
            m.words[0, 0] = np.uint64(0)


class TestMatvec:
    def test_identity(self):
        assert matvec(BitMatrix.identity(3), [1, 0, 1]) == [1, 0, 1]

    def test_xor_of_equal_bits(self):
        assert matvec(bm("11"), [1, 1]) == [0]

    def test_hand_computed_parities(self):
        assert matvec(bm("101", "011"), [1, 1, 1]) == [0, 0]

    @settings(max_examples=300, deadline=None)
    @given(case=extraction_cases())
    def test_agrees_with_naive_reference(self, case):
        # per block, the packed kernel equals the dense product mod 2;
        # the ragged tail yields nothing
        dense, bits = case
        n = dense.shape[1]
        got = linear_extract(BitMatrix.from_dense(dense), BitStream(bits)).bits
        blocks = bits[: len(bits) // n * n].reshape(-1, n)
        expect = [naive_matvec(dense, x) for x in blocks]
        assert got.tolist() == np.concatenate([np.zeros(0, int)] + expect).tolist()

    @settings(max_examples=100, deadline=None)
    @given(case=extraction_cases(), seed=st.integers(0, 2**32 - 1))
    def test_linearity(self, case, seed):
        dense, x = case
        y = np.random.default_rng(seed).integers(0, 2, x.size, np.uint8)
        G = BitMatrix.from_dense(dense)
        xor = linear_extract(G, BitStream(x)).bits ^ linear_extract(G, BitStream(y)).bits
        assert linear_extract(G, BitStream(x ^ y)).bits.tolist() == xor.tolist()


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(4)) == 4

    def test_all_zero(self):
        assert rank(BitMatrix.zeros(3, 5)) == 0

    def test_dependent_rows(self):
        assert rank(bm("110", "011", "101")) == 2

    def test_empty(self):
        assert rank(BitMatrix.zeros(0, 4)) == 0


class TestSystematize:
    def test_already_systematic(self):
        G = bm("1001", "0111")
        form = systematize(G)
        assert form.matrix == G
        assert form.column_permutation == (0, 1, 2, 3)

    def test_row_swap_suffices(self):
        form = systematize(bm("011", "101"))
        assert form.matrix == bm("101", "011")
        assert form.column_permutation == (0, 1, 2)

    def test_rank_deficient_reports_rank(self):
        with pytest.raises(ValueError, match="rank 1"):
            systematize(bm("11", "11"))

    def test_column_swap_when_needed(self):
        form = systematize(bm("001", "010"))
        dense = form.matrix.to_dense()
        assert np.array_equal(dense[:, :2], np.eye(2, dtype=np.uint8))
        assert sorted(form.column_permutation) == [0, 1, 2]
        assert form.column_permutation != (0, 1, 2)

    def _codeword_set(self, dense):
        k = dense.shape[0]
        words = set()
        for m in range(1 << k):
            acc = np.zeros(dense.shape[1], np.uint8)
            for i in range(k):
                if (m >> i) & 1:
                    acc ^= dense[i]
            words.add(acc.tobytes())
        return words

    def test_permutation_maps_code_onto_result(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            k = int(rng.integers(1, 7))
            n = int(rng.integers(k, 12))
            G = random_full_rank(rng, k, n)
            form = systematize(G)
            permuted = G.to_dense()[:, list(form.column_permutation)]
            assert self._codeword_set(permuted) == self._codeword_set(
                form.matrix.to_dense()
            )

    def test_preserves_weight_distribution(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            k = int(rng.integers(1, 11))
            n = int(rng.integers(k, 17))
            G = random_full_rank(rng, k, n)
            form = systematize(G)
            assert naive_weight_counts(G.to_dense()) == naive_weight_counts(
                form.matrix.to_dense()
            )


class TestMatrixText:
    def test_parse_single_row(self):
        assert parse_matrix("1 2\n11\n") == bm("11")

    def test_parse_two_rows(self):
        assert parse_matrix("2 3\n101\n011\n") == bm("101", "011")

    def test_short_row_message(self):
        with pytest.raises(ValueError, match="row 1: expected 3 columns, got 2"):
            parse_matrix("2 3\n10\n011\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_matrix("width 3\n101\n")

    def test_wrong_row_count(self):
        with pytest.raises(ValueError, match="expected 3 rows.*got 2"):
            parse_matrix("3 4\n1010\n0101\n")

    def test_illegal_character(self):
        with pytest.raises(ValueError, match="row 2: invalid character '2'"):
            parse_matrix("2 3\n101\n021\n")

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(k, 90))
            G = BitMatrix.from_dense(rng.integers(0, 2, (k, n), dtype=np.uint8))
            assert parse_matrix(serialize_matrix(G)) == G
