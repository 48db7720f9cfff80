import functools
import hashlib
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from linext import codes, pipeline
from linext.bounds import ALPHA, coord_bias_tolerance
from linext.codes import rm_generator
from linext.errors import InfeasibleError
from linext.gf2 import BLOCK_LENGTH_CAP, BitMatrix, rank
from linext.pipeline import (
    DRAW_BITS,
    PIECE_BITS,
    _chunk_blocks,
    _source_chunks,
    _fwht,
    _stats_from_pmf,
    BiasedSourceSpec,
    BitStream,
    ExactStats,
    empirical_stats,
    extract_file,
    generate,
    grid_stats,
    linear_extract,
    output_weight_profile,
    simulated_stats,
    stats_from_profile,
    von_neumann,
)

from _naive import (
    exact_pmf_fractions,
    naive_codeword_weights,
    random_full_rank,
    stream_bits,
    stream_key,
    to_stream,
    von_neumann_reference,
)


@st.composite
def full_rank_matrices(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 10))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
    dense = ((np.array(rows)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    G = BitMatrix.from_dense(dense)
    assume(rank(G) == k)
    return G


def bm(*rows):
    """The matrix whose rows are the 0/1 strings rows."""
    return BitMatrix.from_dense([[int(c) for c in r] for r in rows])


def bit_arrays(tail):
    """0/1 arrays of 8·j + tail bits."""
    return st.integers(0, 12).flatmap(
        lambda j: arrays(np.uint8, 8 * j + tail, elements=st.integers(0, 1))
    )


class TestBitStream:
    def test_length_and_equality(self):
        s = BitStream.from_bytes(b"\xa0", 3)
        assert len(s) == 3 and s.nbits == 3
        assert stream_key(s) == stream_key(to_stream(np.array([1, 0, 1], np.uint8)))
        assert stream_key(s) != stream_key(to_stream([1, 0]))

    def test_byte_framing_msb_first(self):
        s = BitStream.from_bytes(bytes([0b10000001, 0b11111111]), 9)
        assert s.data.tobytes() == bytes([0b10000001, 0b10000000])
        assert stream_bits(s).tolist() == [1, 0, 0, 0, 0, 0, 0, 1, 1]

    def test_from_bytes_length_check(self):
        with pytest.raises(ValueError):
            BitStream.from_bytes(b"\x00", 9)

    def test_file_roundtrip_with_sidecar(self, tmp_path):
        path = tmp_path / "x.bits"
        ragged = to_stream([1, 1, 0, 1, 0])
        ragged.write(path)
        assert (tmp_path / "x.bits.len").read_text().strip() == "5"
        assert stream_key(BitStream.read(path)) == stream_key(ragged)
        whole = to_stream([0, 1] * 8)
        whole.write(path)
        assert not (tmp_path / "x.bits.len").exists()
        assert stream_key(BitStream.read(path)) == stream_key(whole)

    @pytest.mark.parametrize("tail", range(8))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_roundtrips_at_every_length_mod_8(self, tmp_path, tail, data):
        bits = data.draw(bit_arrays(tail))
        s = to_stream(bits)
        assert len(s) == bits.size and stream_bits(s).tolist() == bits.tolist()
        assert s.data.tobytes() == np.packbits(bits).tobytes()
        assert stream_key(BitStream.from_bytes(s.data.tobytes(), bits.size)) == stream_key(s)
        path = tmp_path / "x.bits"
        s.write(path)
        assert path.read_bytes() == s.data.tobytes()
        assert (tmp_path / "x.bits.len").exists() == bool(tail)
        assert stream_key(BitStream.read(path)) == stream_key(s)

    @pytest.mark.parametrize("tail", range(1, 8))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_dirty_padding_reads_clean(self, tmp_path, tail, data):
        bits = data.draw(bit_arrays(tail))
        clean = to_stream(bits)
        dirty = bytearray(clean.data.tobytes())
        dirty[-1] |= data.draw(st.integers(1, 0xFF >> tail))
        path = tmp_path / "x.bits"
        path.write_bytes(dirty)
        (tmp_path / "x.bits.len").write_text(f"{bits.size}\n")
        s = BitStream.read(path)
        assert stream_key(s) == stream_key(clean)
        assert stream_key(BitStream.from_bytes(bytes(dirty), bits.size)) == stream_key(clean)
        s.write(path)
        assert path.read_bytes() == clean.data.tobytes()


class TestGenerate:
    def test_eps_one_is_all_zero(self):
        s = generate(BiasedSourceSpec(1.0, seed=3), 1000)
        assert not stream_bits(s).any()

    def test_unbiased_ones_fraction(self):
        s = generate(BiasedSourceSpec(0.0, seed=12), 1_000_000)
        # binomial sigma = 0.5/sqrt(n); allow 4 sigma
        assert abs(stream_bits(s).mean() - 0.5) < 0.002

    def test_deterministic_per_seed(self):
        spec = BiasedSourceSpec(0.3, seed=99)
        assert stream_key(generate(spec, 4096)) == stream_key(generate(spec, 4096))
        assert stream_key(generate(spec, 4096)) != stream_key(
            generate(BiasedSourceSpec(0.3, seed=98), 4096))

    def test_bias_direction(self):
        # zeros are the likelier symbol
        s = generate(BiasedSourceSpec(0.5, seed=7), 100_000)
        assert stream_bits(s).mean() == pytest.approx(0.25, abs=0.01)

    @pytest.mark.parametrize(
        "nbits", [DRAW_BITS, DRAW_BITS - 1, DRAW_BITS + 1, 3 * DRAW_BITS // 2 + 5]
    )
    def test_seed_contract(self, nbits):
        # chunked draws give the stream of one draw of nbits doubles
        spec = BiasedSourceSpec(0.3, seed=5)
        expect = np.packbits(np.random.default_rng(5).random(nbits) < spec.rho1)
        s = generate(spec, nbits)
        assert len(s) == nbits
        assert s.data.tobytes() == expect.tobytes()

    # the ends of [0, 1/2] for rho1, a rho1 one ulp above 0 (2^-54) and one
    # that no multiple of 2^-53 equals
    CONTRACT_EPS = [0.0, 1.0, 2.0**-60, 1 - 2.0**-53, 1 / 3]

    @pytest.mark.parametrize("eps", CONTRACT_EPS)
    @pytest.mark.parametrize(
        "nbits", [1, PIECE_BITS - 1, PIECE_BITS + 1, 3 * DRAW_BITS + PIECE_BITS // 2 + 3]
    )
    def test_raw_word_threshold_is_the_double_rule(self, eps, nbits):
        spec = BiasedSourceSpec(eps, seed=nbits)
        expect = np.packbits(np.random.default_rng(nbits).random(nbits) < spec.rho1)
        assert generate(spec, nbits).data.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("eps", CONTRACT_EPS + [0.2, 0.999, 1e-300, 1 - 2.0**-52])
    def test_threshold_at_the_boundary_words(self, eps):
        # the integer and the double rule could part only at the word values
        # around the threshold, which random words hit with probability
        # about 2^-53, so _draw is fed those words: m = w >> 11 on both sides
        # of rho1·2^53, each with the lowest and the highest 11 low bits
        rho1 = BiasedSourceSpec(eps).rho1
        f = math.floor(rho1 * 2.0**53)
        m = np.array([x for x in range(f - 2, f + 3) if 0 <= x < 1 << 53], np.uint64)
        words = ((m[:, None] << np.uint64(11)) | np.array([0, 2047], np.uint64)).ravel()

        class Words:
            def random_raw(self, size):
                return words[:size]

        got = stream_bits(pipeline._draw(Words(), BiasedSourceSpec(eps), words.size))
        want = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 < rho1
        assert got.tolist() == want.astype(np.uint8).tolist()
        assert 0 < want.sum() < want.size or rho1 == 0.0

    @pytest.mark.parametrize("eps", CONTRACT_EPS)
    @pytest.mark.parametrize("n", [1, 25, 100])
    def test_source_chunks_join_to_the_double_rule(self, eps, n):
        # three whole chunks and a ragged one; at n = 25 and 100 a chunk is
        # not a whole number of pieces of PIECE_BITS
        blocks = 3 * _chunk_blocks(n) + 7
        spec = BiasedSourceSpec(eps, seed=n)
        chunks = list(_source_chunks(spec, blocks, n))
        assert [len(c) for c in chunks] == [_chunk_blocks(n) * n] * 3 + [7 * n]
        expect = np.packbits(np.random.default_rng(n).random(blocks * n) < spec.rho1)
        assert b"".join(c.data.tobytes() for c in chunks) == expect.tobytes()

    def test_generate_peak_is_the_stream(self):
        # the 8 MB stream plus one piece of raw words and its bits; a draw of
        # doubles held 8 bytes per bit of each 2^20-bit draw and a joined copy
        nbits = 64 << 20
        tracemalloc.start()
        try:
            s = generate(BiasedSourceSpec(0.2, seed=4), nbits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == nbits
        assert peak < 10 << 20

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            BiasedSourceSpec(1.5)
        with pytest.raises(ValueError):
            generate(BiasedSourceSpec(0.1), -1)


class TestLinearExtract:
    def test_identity_passthrough(self):
        s = to_stream(np.random.default_rng(0).integers(0, 2, 64, np.uint8))
        assert stream_key(linear_extract(BitMatrix.from_dense(np.eye(8)), s)) == stream_key(s)

    def test_xor_pairs(self):
        out = linear_extract(bm("11"), to_stream([0, 1, 1, 0, 1, 1, 0, 0]))
        assert stream_bits(out).tolist() == [1, 1, 0, 0]

    def test_block_count_rm24(self):
        G = rm_generator(2, 4).generator
        out = linear_extract(G, generate(BiasedSourceSpec(0.2, 5), 1600))
        assert len(out) == 1100

    def test_partial_tail_discarded(self):
        G = bm("101", "011")
        s = to_stream([1, 1, 1, 0, 1])  # one full block + 2 leftover bits
        assert len(linear_extract(G, s)) == 2

    def test_agrees_with_per_bit_reference(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(k, 140))
            dense = rng.integers(0, 2, (k, n), dtype=np.uint8)
            bits = rng.integers(0, 2, n * 37 + int(rng.integers(0, n)), np.uint8)
            got = linear_extract(BitMatrix.from_dense(dense), to_stream(bits))
            blocks = len(bits) // n
            expect = []
            for b in range(blocks):
                x = bits[b * n : (b + 1) * n]
                expect.extend(((dense @ x) % 2).tolist())
            assert stream_bits(got).tolist() == expect

    def test_chunked_matches_whole(self):
        # extraction over disjoint block ranges merges to the same stream
        G = rm_generator(2, 4).generator
        s = generate(BiasedSourceSpec(0.1, 21), 16 * 1000)
        whole = linear_extract(G, s)
        half = 16 * 500
        first = linear_extract(G, to_stream(stream_bits(s)[:half]))
        second = linear_extract(G, to_stream(stream_bits(s)[half:]))
        joined = np.concatenate([stream_bits(first), stream_bits(second)])
        assert joined.tolist() == stream_bits(whole).tolist()

    def test_chunk_rule(self):
        # whole bytes in every chunk but the last, and at least 256 blocks in
        # each of the p = 8/gcd(n, 8) byte-offset classes, whose tables each
        # chunk builds; up to n = 512 the chunk is DRAW_BITS bits as before
        for n in range(1, BLOCK_LENGTH_CAP + 1):
            blocks = _chunk_blocks(n)
            assert blocks % 8 == 0 and blocks >= 256 * 8 // math.gcd(n, 8), n
            assert n > 512 or blocks == DRAW_BITS // (8 * n) * 8, n

    def test_chunked_file_extraction_matches_whole_stream(self, tmp_path):
        # a [1031,9] matrix (p = 8) over about 2.5 chunks and a ragged block
        G, n = _seeded_matrix(9, 1031, 6), 1031
        s = generate(BiasedSourceSpec(0.2, 6), 5 * _chunk_blocks(n) // 2 * n + 77)
        s.write(tmp_path / "in.bits")
        whole = linear_extract(G, s)
        assert extract_file(functools.partial(linear_extract, G), n, tmp_path / "in.bits",
                            tmp_path / "out.bits") == (len(s), len(whole))
        assert stream_key(BitStream.read(tmp_path / "out.bits")) == stream_key(whole)


def _seeded_matrix(k, n, seed):
    return BitMatrix.from_dense(
        np.random.default_rng(seed).integers(0, 2, (k, n), dtype=np.uint8)
    )


# (matrix, source seed, whole blocks, tail bits, sha256 of the output bytes);
# the digests were taken from the row-by-row kernel this one replaced
EXTRACT_PINS = [
    (lambda: rm_generator(1, 7).generator, 1, 3001, 77,
     "b8801617b1300ddaf6c5408482727749482ea5c64c83af4128321e174df3e6e5"),
    (lambda: rm_generator(2, 4).generator, 2, 20011, 9,
     "8ffaa1fb5b54acb74738bac95a69dc0ce169d14dec535e2968d6d2f12275f541"),
    (lambda: _seeded_matrix(18, 25, 3), 3, 10007, 24,
     "421dfb07e170eab3a87de84ab78fc6578bc881bdac7191d643307c7b821443a0"),
    (lambda: _seeded_matrix(7, 67, 4), 4, 5003, 66,
     "fedaaf082154f2cb05064a4697ac021caf0b982a13f547a7bceee1ff013db063"),
    (lambda: _seeded_matrix(70, 100, 5), 5, 2003, 13,
     "5f56892d8cfc8d1607a0af59b4106fd39affded7df62aa31c5a181df543f89c5"),
]


@pytest.mark.parametrize(
    "make, seed, blocks, tail, digest", EXTRACT_PINS,
    ids=["rm17", "rm24", "g18x25", "g7x67", "g70x100"],
)
def test_extract_output_bytes_pinned(make, seed, blocks, tail, digest):
    G = make()
    out = linear_extract(G, generate(BiasedSourceSpec(0.3, seed), blocks * G.cols + tail))
    assert len(out) == blocks * G.rows
    assert hashlib.sha256(out.data.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt], ids=["error", "interrupt"])
def test_stopped_extraction_leaves_no_stale_sidecar(tmp_path, stop):
    # the output held a 13-bit stream; the run stops at its third chunk,
    # after two chunks' bytes are written, and leaves no length beside them
    src, dst = tmp_path / "in.bits", tmp_path / "out.bits"
    generate(BiasedSourceSpec(0.2, 1), 3 * DRAW_BITS + 5).write(src)
    to_stream([1] * 13).write(dst)
    G, calls = rm_generator(2, 4).generator, []

    def extract(stream):
        calls.append(len(stream))
        if len(calls) == 3:
            raise stop
        return linear_extract(G, stream)

    with pytest.raises(stop):
        extract_file(extract, G.cols, src, dst)
    assert dst.stat().st_size == 2 * DRAW_BITS * 11 // 16 // 8
    assert not (tmp_path / "out.bits.len").exists()
    assert len(BitStream.read(dst)) == 8 * dst.stat().st_size


@pytest.mark.parametrize("extractor", ["linear", "von-neumann"])
@pytest.mark.parametrize("nbits", [0, 7, 16 * 37 + 9, 16 * 40])
def test_file_extraction_appends_packed_bytes(tmp_path, extractor, nbits):
    # one [16,11] block (11 bits out) or four bit pairs (0 to 4 bits out) a
    # chunk, so the output bits carried between chunks take every count
    # from 1 to 7
    if extractor == "linear":
        n, chunk, extract = 16, 1, functools.partial(linear_extract, rm_generator(2, 4).generator)
    else:
        n, chunk, extract = 2, 4, von_neumann
    s = generate(BiasedSourceSpec(0.3, nbits), nbits)
    s.write(tmp_path / "in.bits")
    want = extract(s)
    want.write(tmp_path / "want.bits")
    nout, carries = [0], set()

    def counted(stream):
        out = extract(stream)
        nout[0] += len(out)
        carries.add(nout[0] % 8)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_chunk_blocks", lambda n: chunk)
        got = extract_file(counted, n, tmp_path / "in.bits", tmp_path / "out.bits")
    assert got == (nbits, len(want))
    assert nbits < 16 * 37 or carries >= set(range(1, 8))

    def contents(name):  # a file's bytes, or None when there is no such file
        path = tmp_path / name
        return path.read_bytes() if path.exists() else None

    assert contents("out.bits") == contents("want.bits")
    assert contents("out.bits.len") == contents("want.bits.len")


class TestVonNeumann:
    def test_discard_blocks(self):
        assert len(von_neumann(to_stream([0, 0, 1, 1]))) == 0

    def test_emission(self):
        assert stream_bits(von_neumann(to_stream([0, 1, 1, 0, 0, 1]))).tolist() == [0, 1, 0]

    def test_matches_reference(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, 10_001, np.uint8)
        assert stream_bits(von_neumann(to_stream(bits))).tolist() == von_neumann_reference(bits)

    @pytest.mark.parametrize(
        "nbits", [2 * DRAW_BITS + 2, 3 * DRAW_BITS - 5, DRAW_BITS + 8 * 1001 + 3]
    )
    def test_chunked_matches_whole_stream(self, nbits):
        # the input spans several DRAW_BITS chunks; the reference pairs it all at once
        s = generate(BiasedSourceSpec(0.3, nbits), nbits)
        pairs = stream_bits(s)[: nbits // 2 * 2]
        first, second = pairs[0::2], pairs[1::2]
        assert stream_key(von_neumann(s)) == stream_key(to_stream(first[first != second]))

    @pytest.mark.parametrize("tail", range(16))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_reference_at_every_length_mod_16(self, tmp_path, tail, data):
        bits = data.draw(st.integers(0, 40).flatmap(
            lambda j: arrays(np.uint8, 16 * j + tail, elements=st.integers(0, 1))))
        want = von_neumann_reference(bits)
        assert stream_bits(von_neumann(to_stream(bits))).tolist() == want
        src, dst = tmp_path / "in.bits", tmp_path / "out.bits"
        to_stream(bits).write(src)
        with pytest.MonkeyPatch.context() as mp:
            # chunks of 32 blocks (64 bits): the tail carry runs
            mp.setattr(pipeline, "_chunk_blocks", lambda n: 32)
            assert extract_file(von_neumann, 2, src, dst) == (len(bits), len(want))
        assert stream_bits(BitStream.read(dst)).tolist() == want

    def test_exactly_unbiased_for_any_p(self):
        # exhaustive 2-bit block analysis in exact rationals
        for tenths in range(1, 10):
            p = Fraction(tenths, 10)
            prob = {0: 1 - p, 1: p}
            mass = {0: Fraction(0), 1: Fraction(0)}
            for a in (0, 1):
                for b in (0, 1):
                    out = von_neumann(to_stream([a, b]))
                    if len(out):
                        mass[int(stream_bits(out)[0])] += prob[a] * prob[b]
            assert mass[0] == mass[1] == p * (1 - p)


class TestExactOracle:
    def test_identity_pmf_is_product(self):
        eps = 0.3
        stats = stats_from_profile(output_weight_profile(BitMatrix.from_dense(np.eye(3))), eps)
        rho = {0: 0.5 + eps / 2, 1: 0.5 - eps / 2}
        for gamma in range(8):
            expect = 1.0
            for i in range(3):
                expect *= rho[(gamma >> i) & 1]
            assert stats.pmf[gamma] == pytest.approx(expect, rel=1e-14)

    def test_single_xor_row_frozen_values(self):
        stats = stats_from_profile(output_weight_profile(bm("11")), 0.5)
        assert stats.pmf[0] == pytest.approx(0.625, abs=1e-15)
        assert stats.pmf[1] == pytest.approx(0.375, abs=1e-15)
        # a weight-2 row meets the bias bound with equality at eps^2
        assert stats.coord_biases[0] == pytest.approx(0.25, abs=1e-15)

    def test_eps_zero_uniform_for_random_full_rank(self):
        rng = np.random.default_rng(5150)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            n = int(rng.integers(k, 14))
            stats = stats_from_profile(output_weight_profile(random_full_rank(rng, k, n)), 0.0)
            assert np.all(stats.pmf == 2.0**-k)
            assert stats.delta == 0.0
            assert stats.shannon == 1.0

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(303)
        for _ in range(12):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(k, 10))
            G = random_full_rank(rng, k, n)
            eps = Fraction(int(rng.integers(0, 11)), 10)
            stats = stats_from_profile(output_weight_profile(G), float(eps))
            expect = exact_pmf_fractions(G.to_dense(), eps)
            for gamma in range(1 << k):
                assert stats.pmf[gamma] == pytest.approx(
                    float(expect[gamma]), abs=1e-14
                )
            delta_exact = sum(abs(p - Fraction(1, 1 << k)) for p in expect)
            assert stats.delta == pytest.approx(float(delta_exact), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        G=full_rank_matrices(),
        eps=st.one_of(
            st.sampled_from([0.0, 0.5, 0.99, 1.0]),
            st.integers(0, 1000).map(lambda i: i / 1000),
        ),
    )
    def test_property_matches_rational_oracle(self, G, eps):
        k = G.rows
        expect = exact_pmf_fractions(G.to_dense(), Fraction(eps))
        stats = stats_from_profile(output_weight_profile(G), eps)
        np.testing.assert_allclose(
            stats.pmf, [float(p) for p in expect], rtol=0, atol=1e-14
        )
        delta_exact = sum(abs(p - Fraction(1, 1 << k)) for p in expect)
        assert stats.delta == pytest.approx(float(delta_exact), abs=1e-12)

    def test_coordinate_bias_equals_eps_to_row_weight(self):
        rng = np.random.default_rng(909)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(k, 12))
            G = random_full_rank(rng, k, n)
            eps = float(rng.uniform(0.05, 0.6))
            stats = stats_from_profile(output_weight_profile(G), eps)
            weights = G.to_dense().sum(axis=1)
            for i in range(k):
                assert stats.coord_biases[i] == pytest.approx(
                    eps ** int(weights[i]), abs=1e-12
                )

    def test_stats_invariants(self):
        stats = stats_from_profile(output_weight_profile(rm_generator(1, 3).generator), 0.2)
        assert stats.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert stats.delta == pytest.approx(2 * stats.tvd, abs=0)
        assert 0.0 <= stats.min_entropy <= stats.shannon <= 1.0
        assert stats.delta <= 2 * (1 - 2.0**-4)
        assert stats.samples is None

    def test_input_cap(self):
        # k = 26 is over the 2^k-bucket cap, whatever n is
        G = rm_generator(3, 5).generator
        with pytest.raises(InfeasibleError, match=r"k=26 needs 2\^26 buckets"):
            stats_from_profile(output_weight_profile(G), 0.1)

    @pytest.mark.parametrize("rows", [("11", "11"), ("000", "000"),
                                      ("110100", "011011", "101111", "000000")],
                             ids=["rank-1", "rank-0", "rank-2"])
    def test_any_rank_matches_naive(self, rows):
        # 2^-k·FWHT(eps^wt(uG)) needs no independent rows: a dependent row
        # is the XOR of others and a zero row is constant
        G = bm(*rows)
        assert rank(G) < G.rows
        for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1)):
            stats = stats_from_profile(output_weight_profile(G), float(eps))
            expect = exact_pmf_fractions(G.to_dense(), eps)
            np.testing.assert_allclose(stats.pmf, [float(p) for p in expect], rtol=0, atol=1e-15)
            ones = [sum(p for u, p in enumerate(expect) if u >> i & 1) for i in range(G.rows)]
            assert stats.coord_biases.tolist() == pytest.approx(
                [float(abs(1 - 2 * q)) for q in ones], abs=1e-15)

    def test_profile_reuse_matches_direct(self):
        G = rm_generator(1, 3).generator
        profile = output_weight_profile(G)
        for eps in (0.05, 0.2, 0.35):
            a = stats_from_profile(profile, eps)
            b = stats_from_profile(output_weight_profile(G), eps)
            assert np.array_equal(a.pmf, b.pmf)

    @pytest.mark.parametrize("k", range(15))
    def test_fwht_is_sylvester_product(self, k):
        # integer inputs |x| <= 2^20 keep every partial sum exact in float64,
        # so the transform must equal H_{2^k} @ x bit for bit. H_{2^k} is
        # kron(H_{2^a}, H_{2^b}) with a + b = k, applied as H_a X H_b^T with X
        # the input as a 2^a x 2^b matrix (high index bits pick the row), so
        # no 2^k x 2^k matrix is formed. k < 3 gives passes of zero bits.
        def sylvester(m):
            h = np.ones((1, 1), np.int64)
            for _ in range(m):
                h = np.kron(np.array([[1, 1], [1, -1]], np.int64), h)
            return h

        a, b = k - k // 2, k // 2
        x = np.random.default_rng(k).integers(-(1 << 20), 1 << 20, 1 << k)
        expect = sylvester(a) @ x.reshape(1 << a, 1 << b) @ sylvester(b).T
        src, dst = x.astype(np.float64), np.empty(1 << k)
        got, spare = _fwht(src, dst)
        assert {id(got), id(spare)} == {id(src), id(dst)}
        assert np.array_equal(got, expect.ravel())

    def test_statistics_allocate_no_2k_array(self):
        # the transform alternates between the caller's two buffers, and
        # _stats_from_pmf's temporary is the caller's spare: neither makes
        # a 2^k-element array of its own (numpy's buffering stays below)
        k = 16
        rng = np.random.default_rng(k)
        src, dst = rng.random(1 << k), np.empty(1 << k)
        pmf = rng.random(1 << k)
        pmf /= pmf.sum()
        biases = np.zeros(k)
        for run in (lambda: _fwht(src, dst), lambda: _stats_from_pmf(pmf, k, biases, dst)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * (8 << k)

    def test_profile_dtype_is_smallest_holding_n(self):
        rng = np.random.default_rng(7)
        for n, dtype in ((25, np.uint8), (255, np.uint8), (256, np.uint16)):
            G = random_full_rank(rng, 6, n)
            w = output_weight_profile(G)
            assert w.dtype == dtype
            assert np.array_equal(w, naive_codeword_weights(G.to_dense()))

    def test_stats_from_profile_peak_is_two_pmf_arrays(self):
        # the pmf and the transform's second buffer, then the pmf and one
        # delta/plogp temporary: two 2^k arrays
        k = 20
        profile = output_weight_profile(
            random_full_rank(np.random.default_rng(24), k, k + 4)
        )
        tracemalloc.start()
        try:
            stats = stats_from_profile(profile, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.pmf.size == 1 << k
        assert peak < 2.25 * (8 << k)

    def test_chunked_accumulation_disjoint_rows(self):
        # disjoint row supports make the output coordinates independent, so
        # the pmf is analytic
        dense = np.zeros((3, 22), np.uint8)
        dense[0, 0:7] = 1
        dense[1, 7:15] = 1
        dense[2, 15:22] = 1
        eps = 0.3
        stats = stats_from_profile(output_weight_profile(BitMatrix.from_dense(dense)), eps)
        row_weights = (7, 8, 7)
        for gamma in range(8):
            expect = 1.0
            for i, w in enumerate(row_weights):
                sign = -1.0 if (gamma >> i) & 1 else 1.0
                expect *= (1.0 + sign * eps**w) / 2.0
            assert stats.pmf[gamma] == pytest.approx(expect, abs=1e-13)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.6, 0.9, 0.99])
    def test_disjoint_rows_k20_n40_product_form(self, eps):
        # disjoint row supports make the 20 output bits independent, so the
        # pmf is the product form prod_i (1 ± eps^w_i)/2, built here by
        # Kronecker products (bit i of the bucket is row i)
        rng = np.random.default_rng(2020)
        cuts = np.sort(rng.choice(np.arange(1, 40), 19, replace=False))
        dense = np.zeros((20, 40), np.uint8)
        for i, (a, b) in enumerate(zip([0, *cuts], [*cuts, 40])):
            dense[i, a:b] = 1
        row_biases = eps ** dense.sum(axis=1).astype(float)
        expect = np.ones(1)
        for b in row_biases:
            expect = np.kron([(1.0 + b) / 2.0, (1.0 - b) / 2.0], expect)
        stats = stats_from_profile(output_weight_profile(BitMatrix.from_dense(dense)), eps)
        assert stats.delta == pytest.approx(
            float(np.abs(expect - 2.0**-20).sum()), abs=1e-12
        )
        np.testing.assert_allclose(stats.coord_biases, row_biases, rtol=0, atol=1e-12)


class TestExactStats:
    def test_construction_freezes_arrays(self):
        # a directly built ExactStats owns read-only arrays, as the oracle's
        # and the tally's do
        biases, pmf = np.zeros(3), np.full(8, 0.125)
        stats = ExactStats(coord_biases=biases, pmf=pmf)
        assert not stats.coord_biases.flags.writeable
        assert not stats.pmf.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            biases[0] = 1.0
        assert not ExactStats(coord_biases=np.ones(2), samples=5).coord_biases.flags.writeable

    def test_oracle_and_tally_arrays_are_read_only(self):
        G = rm_generator(1, 3).generator
        tally = simulated_stats(G, BiasedSourceSpec(0.2, seed=3), 100)
        for stats in (stats_from_profile(output_weight_profile(G), 0.2), tally):
            assert not stats.coord_biases.flags.writeable
            assert not stats.pmf.flags.writeable


class _Stopped(Exception):
    pass


def _stop(*args):
    """Stands in for the work of a split, to end it before any of it runs."""
    raise _Stopped


class TestGridStats:
    """grid_stats splits its eps into contiguous ranges, one per part, the
    first run in this process and each other in a forked child, and gives
    stats_from_profile's stats, bit for bit, pmf aside."""

    GRID = [0.0, 0.02, 0.2, 0.35, 0.5, 0.99, 1.0]

    @pytest.fixture(params=["rm24", "rm15", "g25x18"])
    def profile(self, request):
        if request.param == "g25x18":
            return output_weight_profile(random_full_rank(np.random.default_rng(25), 18, 25))
        r, m = int(request.param[2]), int(request.param[3])
        return output_weight_profile(rm_generator(r, m).generator)

    @pytest.fixture
    def forks(self, monkeypatch):
        made, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: made.append(1) or real())
        return made

    @pytest.mark.parametrize("parts", [1, 2, 3, len(GRID) + 3],
                             ids=["one", "two", "three", "more-than-eps"])
    def test_equals_stats_from_profile(self, profile, forks, monkeypatch, parts):
        # more parts than eps: three ranges are empty and their parts idle
        monkeypatch.setattr(codes, "_part_count", lambda items, steps: parts)
        got = grid_stats(profile, self.GRID)
        assert len(forks) == parts - 1
        assert len(got) == len(self.GRID)
        for eps, stats in zip(self.GRID, got):
            want = stats_from_profile(profile, eps)
            assert (stats.pmf, stats.samples) == (None, None)
            for f in ("delta", "tvd", "shannon", "min_entropy", "max_prob"):
                assert type(getattr(stats, f)) is float
                assert getattr(stats, f).hex() == getattr(want, f).hex(), (eps, f)
            assert stats.coord_biases.dtype == want.coord_biases.dtype
            assert stats.coord_biases.tobytes() == want.coord_biases.tobytes()
            assert not stats.coord_biases.flags.writeable

    @pytest.mark.parametrize("k, eps, cpus, parts", [
        (18, 25, 2, 2),  # the exact benchmark: 25 eps of 64 steps each
        (13, 50, 64, 1),  # 50 eps of 2 steps: no fork at k <= 13
        (11, 50, 64, 1),
        (20, 3, 64, 3),  # 768 steps, but no more parts than eps
        (20, 1, 64, 1),
        # a row of 80,000 · 29 doubles, past SPLIT_ROW_BYTES: one part,
        # nothing counted
        (24, 80_000, 64, None),
    ])
    def test_parts_from_eps_cost(self, monkeypatch, k, eps, cpus, parts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        counted, real = [], codes._part_count
        monkeypatch.setattr(codes, "_part_count",
                            lambda *args: counted.append(real(*args)) or 1)
        monkeypatch.setattr(pipeline, "stats_from_profile", _stop)  # the part count is all
        with pytest.raises(_Stopped):
            grid_stats(np.zeros(1 << k, np.uint8), [0.5] * eps)
        assert counted == ([] if parts is None else [parts])

    def test_every_eps_runs_through_stats_from_profile(self, profile, monkeypatch):
        # the one public oracle runs each eps of a one-part grid, in order
        seen, real = [], pipeline.stats_from_profile
        monkeypatch.setattr(pipeline, "stats_from_profile",
                            lambda p, eps, buf=None: seen.append(eps) or real(p, eps, buf))
        monkeypatch.setattr(codes, "_part_count", lambda items, steps: 1)
        grid_stats(profile, self.GRID)
        assert seen == self.GRID

    def test_one_buffer_pair_per_part(self, profile, monkeypatch):
        # a part runs all its eps in the pair it made before the first;
        # without a pair, stats_from_profile runs in a fresh one of its own
        bufs, real = [], pipeline.stats_from_profile
        monkeypatch.setattr(pipeline, "stats_from_profile",
                            lambda p, eps, buf=None: bufs.append(buf) or real(p, eps, buf))
        monkeypatch.setattr(codes, "_part_count", lambda items, steps: 1)
        grid_stats(profile, self.GRID)
        assert len(bufs) == len(self.GRID)
        assert bufs[0] is not None and all(buf is bufs[0] for buf in bufs)
        a, b = stats_from_profile(profile, 0.2), stats_from_profile(profile, 0.3)
        assert not np.shares_memory(a.pmf, b.pmf)
        assert np.array_equal(a.pmf, stats_from_profile(profile, 0.2).pmf)

    def test_peak_is_one_eps(self, monkeypatch):
        # an eps holds at most two 2^k arrays, as stats_from_profile does;
        # keeping the last eps's stats while the next is made would be three
        k = 20
        profile = output_weight_profile(random_full_rank(np.random.default_rng(24), k, k + 4))
        monkeypatch.setattr(codes, "_part_count", lambda items, steps: 1)
        tracemalloc.start()
        try:
            stats = grid_stats(profile, [0.1, 0.2, 0.3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stats) == 3
        assert peak < 2.25 * (8 << k)


class TestEmpirical:
    def test_point_mass(self):
        stats = empirical_stats(to_stream([1, 0, 1] * 50), 3)
        assert stats.min_entropy == 0.0
        assert stats.max_prob == 1.0
        assert stats.samples == 50

    def test_unbiased_identity_tvd_small(self):
        s = generate(BiasedSourceSpec(0.0, seed=8), 3_000_000)
        out = linear_extract(BitMatrix.from_dense(np.eye(3)), s)
        stats = empirical_stats(out, 3)
        assert stats.samples == 1_000_000
        assert stats.tvd <= 0.01

    def test_matches_exact_oracle_rm16_11(self):
        G = rm_generator(2, 4).generator
        blocks = 1_000_000
        s = generate(BiasedSourceSpec(0.2, seed=1234), 16 * blocks)
        stats = empirical_stats(linear_extract(G, s), 11)
        exact = stats_from_profile(output_weight_profile(G), 0.2)
        nf = math.sqrt((1 << 11) / blocks)
        assert abs(stats.tvd - exact.tvd) <= 3 * nf

    def test_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            empirical_stats(to_stream([1, 0, 1]), 2)
        with pytest.raises(InfeasibleError, match=r"k=25 needs 2\^25 buckets"):
            empirical_stats(to_stream([0] * 50), 25)
        # gated before the 10^10-byte identity matrix
        with pytest.raises(InfeasibleError, match=r"k=100000 needs"):
            empirical_stats(BitStream.from_bytes(bytes(12_500)), 100_000)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_pmf_is_histogram_of_words(self, k):
        # word j of the stream is bits j·k .. j·k + k - 1, bit i weighing 2^i
        m = 997
        bits = np.random.default_rng(k).integers(0, 2, (m, k), dtype=np.uint8)
        words = (bits.astype(np.int64) << np.arange(k)).sum(axis=1)
        stats = empirical_stats(to_stream(bits.reshape(-1)), k)
        assert np.array_equal(stats.pmf, np.bincount(words, minlength=1 << k) / m)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_coord_biases_are_exact(self, seed):
        # |2·ones_i - m| / m from integer column counts, one rounding only
        G = rm_generator(2, 4).generator
        m = 20_000
        out = linear_extract(G, generate(BiasedSourceSpec(0.3, seed), 16 * m))
        ones = stream_bits(out).reshape(m, 11).sum(axis=0, dtype=np.int64)
        expect = [abs(2 * int(c) - m) / m for c in ones]
        assert empirical_stats(out, 11).coord_biases.tolist() == expect

    def test_coord_bias_tolerance_is_union_bounded_hoeffding(self):
        tol = coord_bias_tolerance(16, 200_000)
        assert tol == pytest.approx(math.sqrt(2 * math.log(32 / ALPHA) / 200_000))
        assert round(tol, 4) == 0.0102
        # k coordinates, each two-sided 2·exp(-N·tol^2/2), sum to alpha
        for k, n in [(1, 10), (11, 20_000), (24, 10**8)]:
            tol = coord_bias_tolerance(k, n)
            assert 2 * k * math.exp(-n * tol**2 / 2) == pytest.approx(ALPHA)


class TestSimulatedTally:
    """simulate's chunked tally against the materialized output stream.

    A source chunk holds _chunk_blocks(n) blocks: 65536 at n = 16, 41936 at
    n = 25, 15648 at n = 67 and 10480 at n = 100. Every case below spans at
    least two chunks and ends in a ragged one.
    """

    @pytest.mark.parametrize(
        "k, n, blocks",
        [(11, 16, 3 * 65536 + 5), (11, 25, 2 * 41936 + 777), (7, 67, 3 * 15648 + 1)],
    )
    def test_stats_match_materialized_stream(self, k, n, blocks):
        G = random_full_rank(np.random.default_rng(n), k, n)
        spec = BiasedSourceSpec(0.2, seed=n)
        out = linear_extract(G, generate(spec, blocks * n))
        want = empirical_stats(out, k)
        got = simulated_stats(G, spec, blocks)
        assert np.array_equal(got.pmf, want.pmf)
        assert got.coord_biases.tolist() == want.coord_biases.tolist()
        assert (got.delta, got.shannon, got.min_entropy, got.max_prob, got.samples) == (
            want.delta, want.shannon, want.min_entropy, want.max_prob, want.samples)
        # and both against a plain bincount of the output words
        bits = stream_bits(out).reshape(blocks, k).astype(np.int64)
        words = (bits << np.arange(k)).sum(axis=1)
        assert np.array_equal(got.pmf, np.bincount(words, minlength=1 << k) / blocks)
        ones = bits.sum(axis=0)
        assert got.coord_biases.tolist() == [abs(2 * int(c) - blocks) / blocks for c in ones]

    @pytest.mark.parametrize(
        "k, n, blocks", [(11, 25, 2 * 41936 + 3), (64, 67, 2 * 15648 + 9), (80, 100, 10480 + 77)]
    )
    def test_biases_match_materialized_stream(self, k, n, blocks):
        # k = 64 and k = 80 give words of one and two 64-bit words, past the
        # histogram cap: the tally measures only the biases and the samples
        G = random_full_rank(np.random.default_rng(n), k, n)
        spec = BiasedSourceSpec(0.1, seed=k)
        out = linear_extract(G, generate(spec, blocks * n))
        got = simulated_stats(G, spec, blocks)
        ones = stream_bits(out).reshape(blocks, k).sum(axis=0, dtype=np.int64)
        assert got.coord_biases.tolist() == [abs(2 * int(c) - blocks) / blocks for c in ones]
        assert got.samples == blocks
        assert (got.pmf is None) == (k > pipeline.EMPIRICAL_K_CAP)

    def test_peak_is_one_chunk(self):
        # a chunk of 65536 [16,11] blocks: 128 KB of source bytes, 512 KB of
        # words, and one 1 MB piece of raw PCG64 words while it is drawn
        G = random_full_rank(np.random.default_rng(16), 11, 16)
        tracemalloc.start()
        try:
            stats = simulated_stats(G, BiasedSourceSpec(0.2, seed=3), 3 * 65536 + 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.samples == 3 * 65536 + 5
        assert peak < 4 << 20

    def test_past_the_cap_allocates_no_buckets(self):
        # k = 26: a 2^26 int64 histogram would be 512 MB
        G = rm_generator(3, 5).generator
        tracemalloc.start()
        try:
            stats = simulated_stats(G, BiasedSourceSpec(0.1, seed=2), 70_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (stats.samples, stats.coord_biases.size) == (70_000, 26)
        assert (stats.pmf, stats.delta, stats.max_prob, stats.shannon) == (None,) * 4
        assert peak < 8 << 20

    def test_histogram_peak_is_two_bucket_arrays(self):
        # the int64 counts and the float64 pmf, then the pmf and one delta
        # temporary: never more than two 2^k arrays
        k = 20
        G = random_full_rank(np.random.default_rng(k), k, k + 4)
        tracemalloc.start()
        try:
            stats = simulated_stats(G, BiasedSourceSpec(0.2, seed=1), 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.samples == 4096
        assert peak < 2.25 * (8 << k)


class TestSimulatedSplit:
    """simulated_stats splits its source chunks into contiguous ranges, one
    per part, the first run in this process and each other in a forked
    child on a PCG64 jumped past the chunks before its range, and gives the
    stats of one part, bit for bit. Each case spans several chunks and ends
    in a ragged one; k = 30 tallies byte counts only."""

    @pytest.fixture
    def forks(self, monkeypatch):
        made, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: made.append(1) or real())
        return made

    @staticmethod
    def fields(stats):
        pmf = None if stats.pmf is None else stats.pmf.tobytes()
        floats = [None if getattr(stats, f) is None else getattr(stats, f).hex()
                  for f in ("delta", "tvd", "shannon", "min_entropy", "max_prob")]
        return pmf, stats.coord_biases.tobytes(), floats, stats.samples

    @pytest.mark.parametrize("k, n, blocks", [
        (11, 16, 3 * 65536 + 5), (11, 25, 2 * 41936 + 777), (7, 67, 3 * 15648 + 1),
        (30, 67, 2 * 15648 + 9)])
    def test_equals_one_part(self, forks, monkeypatch, k, n, blocks):
        G = random_full_rank(np.random.default_rng(n + k), k, n)
        spec = BiasedSourceSpec(0.2, seed=n)
        got = []
        for parts in (1, 2, 3):
            monkeypatch.setattr(codes, "_part_count", lambda items, steps: parts)
            del forks[:]
            got.append(self.fields(simulated_stats(G, spec, blocks)))
            assert len(forks) == parts - 1
        assert got[1] == got[0] and got[2] == got[0]
        assert (got[0][0] is None) == (k > pipeline.EMPIRICAL_K_CAP)

    def test_each_part_counts_into_its_own_row(self, monkeypatch):
        # six chunks over three parts, two chunks each: row i holds part i's
        # words alone, and row 0, once summed, every word; a word adds one
        # to each of its ceil(11/8) = 2 byte-count rows of 256
        shared, real = [], codes._shared_zeros
        monkeypatch.setattr(codes, "_shared_zeros",
                            lambda *args: shared.append(real(*args)) or shared[-1])
        monkeypatch.setattr(codes, "_part_count", lambda items, steps: 3)
        G = random_full_rank(np.random.default_rng(16), 11, 16)
        simulated_stats(G, BiasedSourceSpec(0.2, seed=1), 5 * 65536 + 5)
        words = [int(row[:512].sum()) // 2 for row in shared[0]]
        assert words == [5 * 65536 + 5, 2 * 65536, 65536 + 5]

    def test_more_parts_than_chunks(self, forks, monkeypatch):
        # two chunks and five parts: three ranges are empty and their parts idle
        G = random_full_rank(np.random.default_rng(16), 11, 16)
        spec = BiasedSourceSpec(0.3, seed=2)
        monkeypatch.setattr(codes, "_part_count", lambda items, steps: 1)
        want = self.fields(simulated_stats(G, spec, 65536 + 3))
        monkeypatch.setattr(codes, "_part_count", lambda items, steps: 5)
        assert self.fields(simulated_stats(G, spec, 65536 + 3)) == want
        assert len(forks) == 4

    def test_over_the_cap_raises_before_any_fork(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before the source cap"))
        monkeypatch.setattr(codes, "_part_count", lambda items, steps: 2)
        with pytest.raises(InfeasibleError, match="source bits, over the cap"):
            simulated_stats(rm_generator(1, 3).generator, BiasedSourceSpec(0.2), 10**20)

    @pytest.mark.parametrize("start", [0, 1, 2, 3])
    def test_chunk_range_starts_on_its_own_bits(self, start):
        # a range from chunk start on draws the bits the whole stream holds there
        n, blocks = 25, 3 * _chunk_blocks(25) + 7
        spec = BiasedSourceSpec(0.2, seed=6)
        whole = [c.data.tobytes() for c in _source_chunks(spec, blocks, n)]
        assert [c.data.tobytes() for c in _source_chunks(spec, blocks, n, start)] == whole[start:]
        assert [c.data.tobytes() for c in _source_chunks(spec, blocks, n, start, start + 1)] == (
            whole[start : start + 1])

    @pytest.mark.parametrize("k, n, blocks, cpus, parts", [
        (11, 16, 4_000_000, 2, 2),  # the stream benchmark: 3906 steps
        (11, 16, 100_000, 64, 1),  # simulate's default blocks: 97 steps
        (20, 26, 400_000, 64, 2),  # a row of 8,394,752 bytes: 634 steps
        # rows of 2^21 counts or more, up to EMPIRICAL_K_CAP, reach
        # SPLIT_ROW_BYTES: one part, nothing counted
        (21, 27, 400_000, 64, None),
        (22, 28, 400_000, 64, None),
        (24, 30, 400_000, 64, None),
        (26, 32, 1_000_000, 64, 7),  # byte counts only: 1953 steps
        (17, 1 << 16, 600, 64, 3),  # RM(1,16): 2400 steps, but only 3 chunks of 256 blocks
    ])
    def test_parts_from_source_bits(self, monkeypatch, k, n, blocks, cpus, parts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        counted, real = [], codes._part_count
        monkeypatch.setattr(codes, "_part_count",
                            lambda *args: counted.append(real(*args)) or 1)
        monkeypatch.setattr(pipeline, "_tally", _stop)  # the part count is all
        G = (rm_generator(1, 16).generator if n == 1 << 16
             else random_full_rank(np.random.default_rng(k), k, n))
        with pytest.raises(_Stopped):
            simulated_stats(G, BiasedSourceSpec(0.2, seed=1), blocks)
        assert counted == ([] if parts is None else [parts])


def test_one_bucket_gate_for_oracle_and_histograms():
    # the exact oracle and a stream's histogram share one 2^k-bucket gate:
    # the same message, raised before any 2^k allocation
    k = 25
    G = BitMatrix.from_dense(np.eye(k))
    calls = [
        lambda: stats_from_profile(output_weight_profile(G), 0.2),
        lambda: empirical_stats(to_stream([0] * 2 * k), k),
    ]
    messages = []
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(InfeasibleError) as exc:
                call()
            messages.append(str(exc.value))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert messages == ["k=25 needs 2^25 buckets, over the cap 24"] * 2
    assert peak < 1 << 20
