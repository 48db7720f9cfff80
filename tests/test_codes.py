import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from linext import codes
from linext.codes import (
    ENUMERATION_CEILING,
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

    def test_ceiling_holds_whatever_the_cap(self):
        # k = 41 would walk 2^41 codewords, hours on one core
        code = LinearCode(BitMatrix.from_dense(np.eye(ENUMERATION_CEILING + 1, dtype=np.uint8)))
        with pytest.raises(InfeasibleError, match=f"cap {ENUMERATION_CEILING}\\)"):
            enumerate_weights(code, cap=1000)

    def test_trivial_code(self):
        empty = LinearCode(BitMatrix.from_dense(np.zeros((0, 4))))
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


class TestRangeWalk:
    """codeword_weights(rows, dt, start, stop) walks steps [start, stop) of
    its Gray-code sequence, seeding the first with the high rows its h
    selects, so contiguous ranges, joined, yield the pairs of the whole
    walk. The table takes lo = 16 low rows up to two words (n <= 128) and
    15 for three or four."""

    @pytest.mark.parametrize(
        "k, n", [(12, 20), (16, 30), (17, 30), (20, 40), (19, 150)],
        ids=["k<16", "k=16", "k=17", "k=20", "multiword-P"],
    )
    def test_ranges_join_to_the_whole_walk(self, k, n):
        rows = random_full_rank(np.random.default_rng(k * n), k, n).to_dense()
        dt = np.min_scalar_type(n)
        whole = list(codeword_weights(rows, dt))
        steps = len(whole)
        assert steps == 1 << max(0, k - (16 if n <= 128 else 15))
        splits = [[], [0], [steps], [0, 0], [steps, steps], [steps // 3], [1, 1, steps - 1],
                  list(range(steps + 1))]
        for cuts in splits:
            edges = [0, *sorted(min(c, steps) for c in cuts), steps]
            joined = [pair for a, b in zip(edges, edges[1:])
                      for pair in codeword_weights(rows, dt, a, b)]
            assert [h for h, _ in joined] == [h for h, _ in whole]
            assert all(np.array_equal(w, v) for (_, w), (_, v) in zip(joined, whole))
        tail = list(codeword_weights(rows, dt, steps // 2))  # stop None: to the end
        assert [h for h, _ in tail] == [h for h, _ in whole[steps // 2:]]
        assert list(codeword_weights(rows, dt, steps, steps)) == []


SLOW_WALK = """
import os, sys, time
import numpy as np
from linext import codes
from linext.gf2 import BitMatrix

real = codes.codeword_weights

def slow(rows, dt, start=0, stop=None):
    if start:  # a forked part: report its pid, then walk 0.2 s a step
        os.write(1, b"%d\\n" % os.getpid())
    for pair in real(rows, dt, start, stop):
        time.sleep(0.2)
        yield pair

codes.codeword_weights = slow
codes._part_count = lambda steps: 2
codes.enumerate_weights(codes.LinearCode(BitMatrix.from_dense(np.eye(22, 30, dtype=np.uint8))))
"""


def _exited(pid):
    """True once pid is gone or a zombie (its parent may be gone too)."""
    try:
        with open(f"/proc/{pid}/stat") as fp:
            return fp.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestForkedWalk:
    """enumerate_weights splits its 2^(k-lo) steps into contiguous ranges,
    one per part, the first walked in this process and each other in a
    forked child, each adding its counts into its own row of one shared
    mapping."""

    @pytest.fixture(params=[(20, 36), (18, 300)], ids=["pair-keys", "n>255"])
    def code(self, request):
        # 16 steps each: lo = 16 for the [20,36] code's one-word P, 14 for
        # the [18,300] code's five-word P
        k, n = request.param
        return LinearCode(random_full_rank(np.random.default_rng(n), k, n))

    @pytest.fixture
    def forks(self, monkeypatch):
        made, real = [], os.fork
        monkeypatch.setattr(codes.os, "fork", lambda: made.append(1) or real())
        return made

    @pytest.mark.parametrize("cpus, min_steps, parts", [(2, 8, 2), (3, 5, 3), (4, 9, 1)])
    def test_parts_follow_cpus_and_min_steps(self, code, forks, monkeypatch, cpus, min_steps,
                                             parts):
        monkeypatch.setattr(codes.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(codes, "MIN_PART_STEPS", min_steps)
        assert codes._part_count(16) == parts
        one = enumerate_weights(code)
        assert len(forks) == parts - 1
        assert list(one.counts) == naive_weight_counts(code.generator.to_dense())
        monkeypatch.setattr(codes, "_part_count", lambda steps: 1)
        assert enumerate_weights(code) == one

    def test_more_parts_than_steps(self, code, forks, monkeypatch):
        # 19 parts over 16 steps: three ranges are empty, their counts zero
        monkeypatch.setattr(codes, "_part_count", lambda steps: steps + 3)
        got = enumerate_weights(code)
        assert len(forks) == 18
        assert list(got.counts) == naive_weight_counts(code.generator.to_dense())

    @pytest.mark.parametrize("attr", ["fork", "sched_getaffinity"])
    def test_one_part_without_fork_or_affinity(self, monkeypatch, attr):
        monkeypatch.delattr(codes.os, attr, raising=False)
        assert codes._part_count(1 << 20) == 1

    @pytest.mark.parametrize("where, error", [("child", RuntimeError),
                                              ("parent", KeyboardInterrupt)])
    def test_failure_raises_and_leaves_no_child(self, code, monkeypatch, where, error):
        real = codes.codeword_weights

        def broken(rows, dt, start=0, stop=None):
            if (start > 0) == (where == "child"):  # range 0 is the parent's
                raise error("injected")
            return real(rows, dt, start, stop)

        monkeypatch.setattr(codes, "codeword_weights", broken)
        monkeypatch.setattr(codes, "_part_count", lambda steps: 3)
        # a child's error stays in the child, which exits 1: the parent
        # reports that as InfeasibleError, the CLI's exit 3
        expected = InfeasibleError if where == "child" else error
        with pytest.raises(expected, match="exited with 1" if where == "child" else "injected"):
            enumerate_weights(code)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_signal_to_the_command_leaves_no_child(self, sig):
        # SIGINT: the parent's finally kills and reaps its children. SIGTERM
        # ends the parent at once; each child sees os.getppid() change at its
        # next 0.2 s step and exits. Either way both are gone within 3 s,
        # long before the child's 32 steps are walked
        src = os.path.dirname(os.path.dirname(codes.__file__))
        proc = subprocess.Popen([sys.executable, "-c", SLOW_WALK], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=src))
        try:
            child = int(proc.stdout.readline())
            proc.send_signal(sig)
            deadline = time.monotonic() + 3
            assert proc.wait(timeout=3) != 0
            while not _exited(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _exited(child)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()


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
        d = dual_generator(LinearCode(BitMatrix.from_dense(np.zeros((0, 3)))))
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

    def test_cap_over_the_ceiling_routes_as_the_ceiling(self):
        # RM(3,6) is [64,42]: past the ceiling its 2^42 codewords are not
        # walked, its [64,22] dual is
        w, route = weight_distribution(rm_generator(3, 6), cap=1000)
        assert route == "macwilliams"
        assert min_distance(w) == 8

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
