import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, from_dtype

from linext.gf2 import (
    BitMatrix,
    parse_matrix,
    rank,
    serialize_matrix,
    subset_xor_table,
)
from linext.pipeline import linear_extract

from _naive import naive_matvec, stream_bits, to_stream


def bm(*rows):
    """The matrix whose rows are the 0/1 strings rows."""
    return BitMatrix.from_dense([[int(c) for c in r] for r in rows])


def matvec(G, x):
    """G·x for one vector: linear_extract on a one-block stream."""
    return stream_bits(linear_extract(G, to_stream(x))).tolist()


@st.composite
def extraction_cases(draw, n_mod_8=None):
    """A k x n matrix (n past 64 spans several input words, k past 64
    several output words) and a stream of 0-9 whole n-bit blocks (short
    runs leave some of the 8/gcd(n, 8) byte-offset classes empty) plus a
    ragged tail shorter than n. n_mod_8 fixes n's residue mod 8."""
    if n_mod_8 is None:
        n = draw(st.integers(1, 160))
    else:
        n = 8 * draw(st.integers(1 if n_mod_8 == 0 else 0, 19)) + n_mod_8
    k = draw(st.integers(1, min(n, 80)))
    dense = draw(arrays(np.uint8, (k, n), elements=st.integers(0, 1)))
    nbits = n * draw(st.integers(0, 9)) + draw(st.integers(0, n - 1))
    bits = draw(arrays(np.uint8, nbits, elements=st.integers(0, 1)))
    return dense, bits


def naive_extract(dense, bits):
    """Per block, the dense product mod 2; the ragged tail yields nothing."""
    n = dense.shape[1]
    blocks = bits[: len(bits) // n * n].reshape(-1, n)
    return np.concatenate([np.zeros(0, int)] + [naive_matvec(dense, x) for x in blocks])


# Values a uint8 cast changes (256 -> 0, 257 -> 1, 0.5 -> 0, 1.5 -> 1,
# -1 -> 255), each under the dtypes that hold it, beside 0 and 1
CALLER_VALUES = {
    np.bool_: [False, True],
    np.int8: [0, 1, -1, 127, -128],
    np.int16: [0, 1, -1, 256, 257],
    np.int64: [0, 1, -1, 256, 257, 1 << 40],
    np.uint16: [0, 1, 256, 257, 65535],
    np.float64: [0, 1, -1, 256, 257, 0.5, 1.5, -0.0, 5e-324],
}
# arrays of these dtypes are refused, not converted by numpy's cast
OTHER_DTYPE_ARRAYS = [
    np.array([["1", "0"]]),
    np.array([[b"1", b"0"]]),
    np.array([[1, 0]], dtype=object),
    np.array([["2020-01-01", "2020-01-02"]], dtype="datetime64[D]"),
]


@st.composite
def caller_arrays(draw, shape):
    """An array of a dtype in CALLER_VALUES and the given shape; its values
    are that dtype's listed ones or any it holds."""
    dtype = draw(st.sampled_from(list(CALLER_VALUES)))
    values = st.sampled_from(CALLER_VALUES[dtype]) | from_dtype(np.dtype(dtype))
    return draw(arrays(dtype, shape, elements=values))


class TestBitContainers:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matrix_tests_the_callers_values_for_nonzero(self, data):
        cols = data.draw(st.integers(1, 10))
        a = data.draw(caller_arrays((data.draw(st.integers(0, min(3, cols))), cols)))
        dense = BitMatrix.from_dense(a).to_dense()
        assert dense.dtype == np.uint8
        assert np.array_equal(dense, (a != 0).astype(np.uint8))

    @pytest.mark.parametrize("a", OTHER_DTYPE_ARRAYS, ids=lambda a: a.dtype.kind)
    def test_other_dtypes_are_refused(self, a):
        with pytest.raises(ValueError, match="bool or numeric"):
            BitMatrix.from_dense(a)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_dense_is_the_nonzero_entries_read_only(self, data):
        cols = data.draw(st.integers(1, 130))
        d = data.draw(arrays(np.uint8, (data.draw(st.integers(0, min(3, cols))), cols)))
        dense = BitMatrix.from_dense(d).to_dense()
        assert dense.dtype == np.uint8
        assert np.array_equal(dense, d != 0)
        with pytest.raises(ValueError):
            dense[...] = 0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equal_and_hash_equal_exactly_when_entries_match(self, data):
        # (1, 4) and (2, 2) hold the same number of entries, in different shapes
        shapes = st.sampled_from([(0, 1), (0, 4), (1, 1), (1, 4), (2, 2), (2, 3)])
        a, b = (data.draw(arrays(np.uint8, data.draw(shapes), elements=st.integers(0, 2)))
                for _ in range(2))
        A, B = BitMatrix.from_dense(a), BitMatrix.from_dense(b)
        same = bool(np.array_equal(a != 0, b != 0))
        assert (A == B) is same
        assert (hash(A) == hash(B)) is same

    def test_empty_matrices_of_different_widths_differ(self):
        a, b = BitMatrix.from_dense(np.zeros((0, 3))), BitMatrix.from_dense(np.zeros((0, 4)))
        assert a != b and hash(a) != hash(b)

    def test_rows_cols_validation(self):
        with pytest.raises(ValueError):
            BitMatrix.from_dense(np.ones((3, 2), np.uint8))  # rows > cols
        with pytest.raises(ValueError):
            BitMatrix.from_dense([[1, 0], [1, 1, 0]])  # ragged rows

    def test_immutability(self):
        # the entries are a copy: writing into the caller's array later changes nothing
        d = np.array([[1, 0, 1]], np.uint8)
        m = BitMatrix.from_dense(d)
        d[0, 0] = 0
        assert m.to_dense().tolist() == [[1, 0, 1]]
        with pytest.raises(ValueError):
            m.to_dense()[0, 0] = 0


class TestMatvec:
    def test_identity(self):
        assert matvec(BitMatrix.from_dense(np.eye(3)), [1, 0, 1]) == [1, 0, 1]

    def test_xor_of_equal_bits(self):
        assert matvec(bm("11"), [1, 1]) == [0]

    def test_hand_computed_parities(self):
        assert matvec(bm("101", "011"), [1, 1, 1]) == [0, 0]

    @settings(max_examples=300, deadline=None)
    @given(case=extraction_cases())
    def test_agrees_with_naive_reference(self, case):
        dense, bits = case
        got = stream_bits(linear_extract(BitMatrix.from_dense(dense), to_stream(bits)))
        assert got.tolist() == naive_extract(dense, bits).tolist()

    @pytest.mark.parametrize("n_mod_8", range(8))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_agrees_with_naive_reference_for_every_n_mod_8(self, n_mod_8, data):
        dense, bits = data.draw(extraction_cases(n_mod_8))
        got = stream_bits(linear_extract(BitMatrix.from_dense(dense), to_stream(bits)))
        assert got.tolist() == naive_extract(dense, bits).tolist()

    @settings(max_examples=100, deadline=None)
    @given(case=extraction_cases(), seed=st.integers(0, 2**32 - 1))
    def test_linearity(self, case, seed):
        dense, x = case
        y = np.random.default_rng(seed).integers(0, 2, x.size, np.uint8)
        G = BitMatrix.from_dense(dense)
        xor = stream_bits(linear_extract(G, to_stream(x))) ^ stream_bits(
            linear_extract(G, to_stream(y)))
        assert stream_bits(linear_extract(G, to_stream(x ^ y))).tolist() == xor.tolist()


def test_subset_xor_table():
    vectors = np.random.default_rng(3).integers(0, 2**63, (2, 5, 3), dtype=np.uint64)
    table = subset_xor_table(vectors)
    assert table.shape == (2, 32, 3)
    for u in range(32):
        expect = np.zeros((2, 3), np.uint64)
        for j in range(5):
            if u >> j & 1:
                expect ^= vectors[:, j]
        assert np.array_equal(table[:, u], expect)


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.from_dense(np.eye(4))) == 4

    def test_all_zero(self):
        assert rank(BitMatrix.from_dense(np.zeros((3, 5)))) == 0

    def test_dependent_rows(self):
        assert rank(bm("110", "011", "101")) == 2

    def test_empty(self):
        assert rank(BitMatrix.from_dense(np.zeros((0, 4)))) == 0


class TestMatrixText:
    @given(data=st.data())
    def test_roundtrip_drawn(self, data):
        # k = 0 through k = n, n past one and two words
        n = data.draw(st.integers(1, 150))
        dense = data.draw(arrays(np.uint8, (data.draw(st.integers(0, n)), n),
                                 elements=st.integers(0, 1)))
        G = BitMatrix.from_dense(dense)
        assert np.array_equal(G.to_dense(), dense)
        assert BitMatrix.from_dense(G.to_dense()) == G
        text = serialize_matrix(G)
        assert parse_matrix(text) == G
        assert serialize_matrix(parse_matrix(text)) == text

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
        # int() reads each of these as 13: a digit separator, Arabic-Indic
        # and full-width digits; the format's integers are ASCII decimal
        for dim in ("1_3", "\u0661\u0663", "\uff11\uff13"):
            with pytest.raises(ValueError, match=re.escape(
                    f"line 1: expected header 'rows cols', got '1 {dim}'")):
                parse_matrix(f"1 {dim}\n{'1' * 13}\n")

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
