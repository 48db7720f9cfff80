"""Acceptance gate: one test per release criterion, each printing a
PASS/WARN line (run with -s to see them on success).

These checks pin the tool's core guarantees: every bound is sound against
the exact Walsh-Hadamard oracle, the weight/worst bound ordering and its
equality gap, MacWilliams round-trips, Reed-Muller structure, the
reproducible [16,11] sweep, von Neumann exactness, Monte-Carlo/oracle
agreement, extraction throughput, and the h-variant ordering.
"""

import io
import math
import time
import warnings
from fractions import Fraction

import numpy as np

from linext.bounds import (
    bias_bound,
    entropy_lower_bound,
    hmin_bound,
    linear_grid,
    pointwise_bound,
    sweep,
    tvd_weight_bound,
    tvd_worst_bound,
    write_csv,
)
from linext.codes import (
    LinearCode,
    dual_generator,
    enumerate_weights,
    macwilliams_transform,
    min_distance,
    rm_generator,
)
from linext.gf2 import BitMatrix
from linext.pipeline import (
    BiasedSourceSpec,
    empirical_stats,
    generate,
    linear_extract,
    output_weight_profile,
    stats_from_profile,
    von_neumann,
)

from _naive import random_full_rank, stream_bits, to_stream

EPS_GRID_9 = [i * 0.05 for i in range(1, 10)]  # 0.05 .. 0.45
SLACK = 1e-12


def test_criterion_1_bound_soundness_suite():
    rng = np.random.default_rng(20240801)
    t0 = time.perf_counter()
    comparisons = 0
    for _ in range(200):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k, 15))
        G = random_full_rank(rng, k, n)
        w = enumerate_weights(LinearCode(G))
        d = min_distance(w)
        profile = output_weight_profile(G)
        for eps in EPS_GRID_9:
            st = stats_from_profile(profile, eps)
            assert st.delta <= tvd_weight_bound(w, eps) + SLACK
            assert st.max_prob <= pointwise_bound(eps, d, k) + SLACK
            assert np.all(st.coord_biases <= bias_bound(eps, d) + SLACK)
            assert st.shannon >= entropy_lower_bound(st.delta, k, "standard") - SLACK
            assert st.min_entropy >= hmin_bound(k, d, eps) - SLACK
            comparisons += 1
    elapsed = time.perf_counter() - t0
    assert comparisons == 1800
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 1 bound-soundness: PASS "
        f"({comparisons} oracle comparisons, {elapsed:.1f}s)"
    )


def _simplex_7_3() -> LinearCode:
    # columns are all nonzero 3-bit vectors; every nonzero codeword has weight 4
    dense = np.array(
        [[(c >> i) & 1 for c in range(1, 8)] for i in range(3)], np.uint8
    )
    return LinearCode(BitMatrix.from_dense(dense), label="simplex[7,3]")


def test_criterion_2_bound_ordering_and_simplex_gap():
    rng = np.random.default_rng(2)
    grids = linear_grid(0.01, 0.5, 50)
    distributions = [
        enumerate_weights(rm_generator(2, 4)),
        enumerate_weights(rm_generator(1, 3)),
        enumerate_weights(_simplex_7_3()),
    ]
    for _ in range(10):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(k, 14))
        distributions.append(enumerate_weights(LinearCode(random_full_rank(rng, k, n))))
    rows_checked = 0
    for w in distributions:
        for row in sweep(w, grids):
            assert row.tvd_weight <= row.tvd_worst
            rows_checked += 1
    simplex = enumerate_weights(_simplex_7_3())
    assert simplex.nonzero() == [(0, 1), (4, 7)]
    for eps in grids:
        assert tvd_weight_bound(simplex, eps) == 7 * eps**4
        assert tvd_worst_bound(3, 4, eps) == 8 * eps**4
    print(
        f"ACCEPTANCE 2 bound-ordering: PASS "
        f"({rows_checked} sweep rows; simplex gap 7eps^4 vs 8eps^4 exact)"
    )


def test_criterion_3_macwilliams_exactness():
    rng = np.random.default_rng(3)
    for trial in range(100):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k, 17))
        code = LinearCode(random_full_rank(rng, k, n))
        primal = enumerate_weights(code)
        dual = enumerate_weights(dual_generator(code))
        assert macwilliams_transform(dual) == primal  # exact integer equality
    print("ACCEPTANCE 3 macwilliams: PASS (100 random codes, integer equality)")


def test_criterion_4_reed_muller_structure():
    checked = []
    for m in range(1, 8):
        for r in range(m + 1):
            k = sum(math.comb(m, i) for i in range(r + 1))
            if k > 28:
                continue
            code = rm_generator(r, m)
            assert code.n == 1 << m
            assert code.k == k
            w = enumerate_weights(code)
            assert min_distance(w) == 1 << (m - r)
            checked.append((r, m))
    rm24 = rm_generator(2, 4)
    w24 = enumerate_weights(rm24)
    assert (rm24.n, rm24.k, min_distance(w24)) == (16, 11, 4)
    print(f"ACCEPTANCE 4 reed-muller-structure: PASS ({len(checked)} codes)")


def test_criterion_5_figure_style_sweep_rm16_11():
    w = enumerate_weights(rm_generator(2, 4))
    grid = linear_grid(0.01, 0.5, 50)
    rows = sweep(w, grid)
    assert len(rows) == 50
    # three entropy curves, weight-based above worst-case, all within [0, 1]
    for r in rows:
        assert 0.0 <= r.hmin_bound <= 1.0
        assert 0.0 <= r.entropy_worst <= r.entropy_weight <= 1.0
    # the eps -> 0 limit of every curve is exactly 1
    (zero_row,) = sweep(w, [0.0])
    assert zero_row.hmin_bound == 1.0
    assert zero_row.entropy_weight == 1.0
    assert zero_row.entropy_worst == 1.0
    assert rows[0].entropy_weight > 0.999 and rows[0].hmin_bound > 0.999
    # each curve is nonincreasing while its delta stays <= 1
    for a, b in zip(rows, rows[1:]):
        assert b.hmin_bound <= a.hmin_bound
        if a.tvd_weight <= 1.0 and b.tvd_weight <= 1.0:
            assert b.entropy_weight <= a.entropy_weight
        if a.tvd_worst <= 1.0 and b.tvd_worst <= 1.0:
            assert b.entropy_worst <= a.entropy_worst
    first, second = io.StringIO(), io.StringIO()
    write_csv(rows, first)
    write_csv(sweep(w, grid), second)
    assert first.getvalue() == second.getvalue()
    print("ACCEPTANCE 5 figure-sweep: PASS (50 rows, byte-stable CSV)")


def test_criterion_6_von_neumann_exactness_and_rate():
    # exhaustive 2-bit analysis in exact rationals: emission is unbiased
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
    # simulated rate at p = 1/2: a quarter of the input, within 4 sigma
    nbits = 1_000_000
    out = von_neumann(generate(BiasedSourceSpec(0.0, seed=66), nbits))
    sigma = math.sqrt(nbits / 2 * 0.25)
    assert abs(len(out) - nbits / 4) <= 4 * sigma
    print(
        f"ACCEPTANCE 6 von-neumann: PASS "
        f"(exact for p=0.1..0.9; rate {len(out) / nbits:.4f} of input)"
    )


def test_criterion_7_monte_carlo_matches_oracle():
    t0 = time.perf_counter()
    blocks = 1_000_000
    code = rm_generator(1, 3)
    stream = generate(BiasedSourceSpec(0.2, seed=777), code.n * blocks)
    extracted = linear_extract(code.generator, stream)
    empirical = empirical_stats(extracted, code.k)
    exact = stats_from_profile(output_weight_profile(code.generator), 0.2)
    floor = math.sqrt((1 << code.k) / blocks)
    assert abs(empirical.tvd - exact.tvd) <= 3 * floor
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 7 monte-carlo-vs-oracle: PASS "
        f"(|tvd diff| {abs(empirical.tvd - exact.tvd):.2e} <= {3 * floor:.2e}, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_8_throughput_smoke():
    G = rm_generator(2, 4).generator
    nbits = 20_000_000
    stream = generate(BiasedSourceSpec(0.1, seed=8), nbits)
    t0 = time.perf_counter()
    out = linear_extract(G, stream)
    elapsed = time.perf_counter() - t0
    assert len(out) == (nbits // 16) * 11
    rate = nbits / elapsed
    # soft target: a shortfall warns but does not fail the gate
    if rate < 1e7:
        warnings.warn(f"extraction throughput {rate:.2e} bits/s below 1e7 target")
        print(f"ACCEPTANCE 8 throughput: WARN ({rate / 1e6:.0f} Mbit/s < 10 Mbit/s)")
    else:
        print(f"ACCEPTANCE 8 throughput: PASS ({rate / 1e6:.0f} Mbit/s input)")


def test_criterion_9_h_variant_comparison():
    w = enumerate_weights(rm_generator(2, 4))
    grid = linear_grid(0.01, 0.5, 50)
    standard = sweep(w, grid, "standard")
    printed = sweep(w, grid, "as-printed")
    assert {r.h_variant for r in standard} == {"standard"}
    assert {r.h_variant for r in printed} == {"as-printed"}
    compared = 0
    for s, p in zip(standard, printed):
        if 0.0 < s.tvd_weight < 1.0:
            assert p.entropy_weight_raw >= s.entropy_weight_raw - 1e-15
            compared += 1
        if 0.0 < s.tvd_worst < 1.0:
            assert p.entropy_worst_raw >= s.entropy_worst_raw - 1e-15
    assert compared > 0
    buf_s, buf_p = io.StringIO(), io.StringIO()
    write_csv(standard, buf_s)
    write_csv(printed, buf_p)
    assert ",standard" in buf_s.getvalue() and ",as-printed" in buf_p.getvalue()
    print(
        f"ACCEPTANCE 9 h-variant: PASS "
        f"(as-printed >= standard on {compared} in-range grid points)"
    )
