import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from linext.codes import (
    LinearCode,
    WeightDistribution,
    codeword_weights,
    dual_generator,
    enumerate_weights,
    macwilliams_transform,
    min_distance,
    parse_weights,
    rm_generator,
    serialize_weights,
    weight_distribution,
)
from linext.errors import InfeasibleError
from linext.gf2 import BitMatrix, rank, serialize_matrix
from linext.pipeline import output_weight_profile

from _naive import (
    naive_codeword_weights, naive_macwilliams, naive_weight_counts, random_full_rank,
)

# brute-forced once and frozen; the [16,11] extended-Hamming distribution
RM24_WEIGHTS = {0: 1, 4: 140, 6: 448, 8: 870, 10: 448, 12: 140, 16: 1}


def code_from_rows(*rows, label=""):
    return LinearCode(BitMatrix.from_rows(rows), label=label)


class TestWeightDistribution:
    def test_invariant_violations(self):
        with pytest.raises(ValueError, match="A_0"):
            WeightDistribution(2, 1, (0, 2, 0))
        with pytest.raises(ValueError, match="sum"):
            WeightDistribution(2, 1, (1, 2, 0))
        with pytest.raises(ValueError, match="negative"):
            WeightDistribution(2, 2, (1, -1, 4))
        with pytest.raises(ValueError, match="counts"):
            WeightDistribution(3, 1, (1, 1))

    def test_nonzero_listing(self):
        w = WeightDistribution(3, 1, (1, 0, 0, 1))
        assert w.nonzero() == [(0, 1), (3, 1)]


class TestReedMuller:
    def test_rm_2_4_is_16_11(self):
        c = rm_generator(2, 4)
        assert (c.n, c.k) == (16, 11)

    def test_rm_4_8_is_256_163(self):
        c = rm_generator(4, 8)
        assert (c.n, c.k) == (256, 163)

    def test_rm_0_3_is_repetition(self):
        c = rm_generator(0, 3)
        assert (c.n, c.k) == (8, 1)
        assert c.generator.to_dense().tolist() == [[1] * 8]

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            rm_generator(3, 2)
        with pytest.raises(ValueError):
            rm_generator(-1, 2)
        with pytest.raises(ValueError):
            rm_generator(0, 0)

    def test_row_and_point_ordering_is_frozen(self):
        # degree-ascending rows, lexicographic subsets, points by integer;
        # any change here breaks byte-for-byte reproducibility
        assert serialize_matrix(rm_generator(1, 2).generator) == (
            "3 4\n1111\n0101\n0011\n"
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_structure_small_family(self, m):
        for r in range(m + 1):
            c = rm_generator(r, m)
            assert c.n == 1 << m
            assert c.k == sum(math.comb(m, i) for i in range(r + 1))
            w = enumerate_weights(c)
            assert min_distance(w) == 1 << (m - r)


class TestEnumerateWeights:
    def test_repetition_3_1(self):
        w = enumerate_weights(code_from_rows("111"))
        assert w.nonzero() == [(0, 1), (3, 1)]

    def test_rm_1_3(self):
        w = enumerate_weights(rm_generator(1, 3))
        assert w.nonzero() == [(0, 1), (4, 14), (8, 1)]

    def test_rm_2_4_full_distribution(self):
        w = enumerate_weights(rm_generator(2, 4))
        assert dict(w.nonzero()) == RM24_WEIGHTS
        assert min_distance(w) == 4

    def test_cap_rejection(self):
        with pytest.raises(InfeasibleError, match="MacWilliams"):
            enumerate_weights(rm_generator(1, 3), cap=3)

    def test_trivial_code(self):
        empty = LinearCode(BitMatrix.zeros(0, 4))
        w = enumerate_weights(empty)
        assert (w.n, w.k) == (4, 0)
        assert w.nonzero() == [(0, 1)]

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 40, 255, 256, 300])
    def test_one_and_two_codeword_chunks(self, k, n):
        # k = 0 walks one codeword (the plain bincount); k = 1 walks a chunk
        # of two, one uint16 pair key up to n = 255
        G = random_full_rank(np.random.default_rng(n), k, n)
        assert list(enumerate_weights(LinearCode(G)).counts) == naive_weight_counts(G.to_dense())

    def test_matches_naive_recomputation(self):
        # table+Gray path vs per-codeword recomputation, k past the table split
        rng = np.random.default_rng(23)
        for _ in range(25):
            k = int(rng.integers(1, 13))
            n = int(rng.integers(k, 24))
            G = random_full_rank(rng, k, n)
            got = enumerate_weights(LinearCode(G))
            assert list(got.counts) == naive_weight_counts(G.to_dense())

    def test_matches_naive_on_multiword_rows(self):
        # n > 64 exercises the multi-word popcount reduction
        rng = np.random.default_rng(29)
        for n in (65, 100, 130):
            G = random_full_rank(rng, 8, n)
            got = enumerate_weights(LinearCode(G))
            assert list(got.counts) == naive_weight_counts(G.to_dense())

    def test_pair_histogram_memory_is_bounded(self):
        # one-word [40,20]: the 2^16-word table, one XOR of it and one-byte
        # weights, 1.2 MB; intp weight chunks, one held across each step,
        # peak at 1.63 MB
        code = LinearCode(random_full_rank(np.random.default_rng(40), 20, 40))
        tracemalloc.start()
        try:
            w = enumerate_weights(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(w.counts) == 1 << 20
        assert peak < 1.5 * (1 << 20)


class TestSystematicWalk:
    """enumerate_weights walks only the n-k non-pivot columns P of the
    row-reduced generator and adds popcount(u): wt(uG) = popcount(u) +
    wt(uP). Each generator holds the all-ones word, so n > 255 puts a
    weight past uint8 while P's weights still fit it."""

    @pytest.mark.parametrize(
        "k, n",
        [(0, 5), (5, 30), (14, 18), (18, 40), (10, 100), (17, 200),
         (17, 255), (17, 256), (20, 270)],
        ids=["k=0", "k<n-k", "k>n-k", "k>16", "two-word-P", "three-word-P",
             "n=255", "n=256", "n=270"],
    )
    def test_matches_naive(self, k, n):
        rng = np.random.default_rng(1000 * k + n)
        while True:
            dense = rng.integers(0, 2, (k, n), dtype=np.uint8)
            dense[:1] = 1
            if rank(BitMatrix.from_dense(dense)) == k:
                break
        got = enumerate_weights(LinearCode(BitMatrix.from_dense(dense)))
        assert list(got.counts) == naive_weight_counts(dense)
        assert got.counts[n] == (k > 0)

    @pytest.mark.parametrize("n", [1, 9, 18])
    def test_full_space_is_binomial(self, n):
        # k = n: P has no columns and every weight is popcount(u)
        G = random_full_rank(np.random.default_rng(n), n, n)
        got = enumerate_weights(LinearCode(G))
        assert list(got.counts) == [math.comb(n, l) for l in range(n + 1)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_basis_and_column_order_do_not_matter(self, k, extra, seed):
        rng = np.random.default_rng(seed)
        n = k + extra
        dense = random_full_rank(rng, k, n).to_dense()
        mix = random_full_rank(rng, k, k).to_dense().astype(np.int64)
        variants = [dense, (mix @ dense % 2).astype(np.uint8), dense[:, rng.permutation(n)]]
        counts = [enumerate_weights(LinearCode(BitMatrix.from_dense(d))).counts
                  for d in variants]
        assert counts[0] == counts[1] == counts[2]
        assert list(counts[0]) == naive_weight_counts(dense)


class TestWideWalk:
    """Block lengths of many words: the walk's table shrinks to 2^17 words
    (RM(1,14): 256 words, so 2^9 of the 2^15 messages) and the Gray walk
    covers the rest."""

    def test_profile_is_exact(self):
        code = rm_generator(1, 14)
        w = output_weight_profile(code.generator)
        # row 0 is all ones; every other nonzero codeword is affine, weight n/2
        assert (int(w[0]), int(w[1])) == (0, code.n)
        assert w.size == 1 << 15 and bool((w[2:] == code.n // 2).all())

    def test_random_profile_matches_per_message_xor(self):
        # n = 9000 is 141 words, so 2^9 messages per table and a 4-step walk
        G = random_full_rank(np.random.default_rng(67), 11, 9000)
        rows = [int("".join(map(str, r)), 2) for r in G.to_dense().tolist()]
        expected = []
        for u in range(1 << 11):
            word = 0
            for i, r in enumerate(rows):
                if u >> i & 1:
                    word ^= r
            expected.append(bin(word).count("1"))
        assert output_weight_profile(G).tolist() == expected

    def test_table_memory_is_bounded(self):
        code = rm_generator(1, 14)
        tracemalloc.start()
        try:
            w = enumerate_weights(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.nonzero() == [(0, 1), (code.n // 2, (1 << 15) - 2), (code.n, 1)]
        # a 2^16-message table of 256 words would be 128 MB; 2^17 words are 1 MB
        assert peak < 8 << 20


class TestMultiwordGrayWalk:
    """k past the table split on codewords of two to four words, so every
    Gray step XORs a multi-word row into the word-major table: lo is 16 up
    to two words (n <= 128) and 15 for three and four. n = 255 is the
    widest code whose weights enumerate_weights counts in uint16 pairs;
    n = 256 takes the plain bincount of uint16 weights."""

    @pytest.mark.parametrize(
        "k, n",
        [(18, 100), (17, 150)] + [(17, n) for n in (127, 128, 129, 191, 192, 193, 255, 256)],
    )
    def test_walk_matches_naive(self, k, n):
        G = random_full_rank(np.random.default_rng(n), k, n)
        expected = naive_codeword_weights(G.to_dense())
        lo = 16 if n <= 128 else 15
        hs = []
        for h, w in codeword_weights(G.to_dense(), np.min_scalar_type(n)):
            assert w.size == 1 << lo and w.dtype == np.min_scalar_type(n)
            assert np.array_equal(w, expected[h << lo : (h + 1) << lo])
            hs.append(h)
        assert sorted(hs) == list(range(1 << (k - lo)))
        assert np.array_equal(output_weight_profile(G), expected)
        assert list(enumerate_weights(LinearCode(G)).counts) == np.bincount(
            expected, minlength=n + 1
        ).tolist()

    def test_macwilliams_through_two_word_dual(self):
        # C = C1 + C2 + C3 (direct sum of three [24,17] codes) is [72,51]; its
        # [72,21] dual is walked over two-word rows, while A(C) is the
        # convolution of the components' brute-forced distributions
        rng = np.random.default_rng(72)
        blocks = [random_full_rank(rng, 17, 24).to_dense() for _ in range(3)]
        dense = np.zeros((51, 72), np.uint8)
        for i, b in enumerate(blocks):
            dense[17 * i : 17 * (i + 1), 24 * i : 24 * (i + 1)] = b
        direct = np.ones(1, np.int64)  # the total, 2^51, fits int64
        for b in blocks:
            direct = np.convolve(direct, naive_weight_counts(b))
        via, route = weight_distribution(LinearCode(BitMatrix.from_dense(dense)))
        assert route == "macwilliams"
        assert list(via.counts) == direct.tolist()


class TestMinDistance:
    def test_examples(self):
        assert min_distance(enumerate_weights(code_from_rows("111"))) == 3
        assert min_distance(enumerate_weights(rm_generator(2, 4))) == 4
        assert min_distance(enumerate_weights(rm_generator(1, 5))) == 16

    def test_trivial_code_rejected(self):
        w = WeightDistribution(3, 0, (1, 0, 0, 0))
        with pytest.raises(ValueError):
            min_distance(w)


class TestDual:
    def test_self_dual_pair(self):
        d = dual_generator(code_from_rows("11"))
        assert d.generator == BitMatrix.from_rows(["11"])

    def test_dual_of_full_space_is_empty(self):
        d = dual_generator(LinearCode(BitMatrix.identity(3)))
        assert (d.n, d.k) == (3, 0)

    def test_dual_of_empty_is_full_space(self):
        d = dual_generator(LinearCode(BitMatrix.zeros(0, 3)))
        assert d.generator == BitMatrix.identity(3)

    def test_rm_1_3_dual(self):
        c = rm_generator(1, 3)
        d = dual_generator(c)
        assert d.k == 4
        prod = (d.generator.to_dense() @ c.generator.to_dense().T) % 2
        assert not prod.any()

    def test_orthogonality_random(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            k = int(rng.integers(1, 8))
            n = int(rng.integers(k, 14))
            c = LinearCode(random_full_rank(rng, k, n))
            d = dual_generator(c)
            assert d.k == n - k
            prod = (d.generator.to_dense() @ c.generator.to_dense().T) % 2
            assert not prod.any()


class TestMacWilliams:
    def test_self_dual_2_1(self):
        w = WeightDistribution(2, 1, (1, 0, 1))
        assert macwilliams_transform(w) == w

    def test_rm_1_3_via_dual(self):
        c = rm_generator(1, 3)
        via_dual = macwilliams_transform(enumerate_weights(dual_generator(c)))
        assert via_dual == enumerate_weights(c)

    def test_involution_on_random_codes(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            k = int(rng.integers(1, 8))
            n = int(rng.integers(k, 13))
            w = enumerate_weights(LinearCode(random_full_rank(rng, k, n)))
            assert macwilliams_transform(macwilliams_transform(w)) == w

    def test_matches_binomial_sums_on_random_duals(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            n = int(rng.integers(2, 81))
            k = int(rng.integers(1, min(n, 12) + 1))
            dual = enumerate_weights(LinearCode(random_full_rank(rng, k, n)))
            assert list(macwilliams_transform(dual).counts) == naive_macwilliams(dual)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_binomial_sums_on_rm1_duals(self, m):
        dual = enumerate_weights(rm_generator(1, m))
        assert list(macwilliams_transform(dual).counts) == naive_macwilliams(dual)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dual_transform_matches_direct_enumeration(self, data):
        # 1 <= k < n <= 24, so both codes have k >= 1 and n <= 255: both
        # sides run the uint16 pair histogram
        n = data.draw(st.integers(2, 24))
        k = data.draw(st.integers(1, n - 1))
        # every [n,k] code has a generator [I_k | A] up to a column
        # permutation, so this reaches every code with no rank filter
        A = data.draw(arrays(np.uint8, (k, n - k), elements=st.integers(0, 1)))
        perm = data.draw(st.permutations(range(n)))
        code = LinearCode(BitMatrix.from_dense(np.hstack([np.eye(k, dtype=np.uint8), A])[:, perm]))
        via_dual = macwilliams_transform(enumerate_weights(dual_generator(code)))
        assert via_dual == enumerate_weights(code)

    def test_non_dual_input_detected(self):
        # sums to 2^2 but is not linear (three weight-1 words, no closure)
        fake = WeightDistribution(4, 2, (1, 3, 0, 0, 0))
        with pytest.raises(ValueError, match="non-exact"):
            macwilliams_transform(fake)


class TestWeightDistributionRoute:
    def test_enumerate_route(self):
        w, route = weight_distribution(rm_generator(1, 3))
        assert route == "enumerate"
        assert w.nonzero() == [(0, 1), (4, 14), (8, 1)]

    def test_macwilliams_route_picked_when_dual_fits(self):
        rng = np.random.default_rng(53)
        code = LinearCode(random_full_rank(rng, 6, 9))
        direct = enumerate_weights(code)
        via, route = weight_distribution(code, cap=4)
        assert route == "macwilliams"
        assert via == direct

    def test_both_directions_too_large(self):
        rng = np.random.default_rng(59)
        code = LinearCode(random_full_rank(rng, 6, 12))
        with pytest.raises(InfeasibleError, match="external"):
            weight_distribution(code, cap=5)


class TestWeightFiles:
    def test_roundtrip(self):
        w = enumerate_weights(rm_generator(2, 4))
        assert parse_weights(serialize_weights(w)) == w

    @given(data=st.data())
    def test_roundtrip_drawn(self, data):
        # any valid distribution: A_0 = 1 and 2^k - 1 more words spread over
        # the weights 1..n in a drawn order
        n = data.draw(st.integers(1, 80))
        k = data.draw(st.integers(0, n))
        counts, rest = [1] + [0] * n, (1 << k) - 1
        for l in data.draw(st.permutations(range(1, n + 1))):
            counts[l] = data.draw(st.integers(0, rest))
            rest -= counts[l]
        counts[l] += rest
        w = WeightDistribution(n, k, tuple(counts))
        text = serialize_weights(w)
        assert parse_weights(text) == w
        assert serialize_weights(parse_weights(text)) == text

    def test_format_example(self):
        assert serialize_weights(
            WeightDistribution(3, 1, (1, 0, 0, 1))
        ) == "3 1\n0 1\n3 1\n"

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_weights("nope\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_weights("3 1\n0 one\n3 1\n")
        with pytest.raises(ValueError, match="line 3: weight 4"):
            parse_weights("3 1\n0 1\n4 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_weights("3 1\n0 1\n0 1\n")
        with pytest.raises(ValueError, match="sum"):
            parse_weights("3 1\n0 1\n3 2\n")
