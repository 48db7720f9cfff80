import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from linext.bounds import (
    ALPHA,
    CSV_HEADER,
    Check,
    bias_bound,
    checks,
    clamp01,
    entropy_lower_bound,
    format_real,
    hmin_bound,
    linear_grid,
    pointwise_bound,
    pointwise_tolerance,
    sweep,
    tvd_tolerance,
    tvd_weight_bound,
    tvd_worst_bound,
    write_csv,
)
from linext.codes import LinearCode, WeightDistribution, enumerate_weights, rm_generator
from linext.gf2 import BitMatrix, rank
from linext.pipeline import ExactStats, output_weight_profile, stats_from_profile

from _naive import random_full_rank

REP31 = WeightDistribution(3, 1, (1, 0, 0, 1))

# delta for RM[16,11] at eps = 1/4, summed in exact rational arithmetic
DELTA_RM24_EPS25 = Fraction(2877459457, 4294967296)
# entropy_lower_bound(DELTA_RM24_EPS25, k=11) at 50-digit precision
ENTROPY_RM24_STANDARD = 0.58141071858926049273
ENTROPY_RM24_AS_PRINTED = 0.61186347938295250174
# hmin_bound(11, 4, 0.1) at 50-digit precision
HMIN_11_4_01 = 0.975564211352501929


@pytest.fixture(scope="module")
def rm24():
    return enumerate_weights(rm_generator(2, 4))


class TestPointBounds:
    def test_bias_bound(self):
        assert bias_bound(0.0, 5) == 0.0
        assert bias_bound(1.0, 7) == 1.0
        assert bias_bound(0.1, 4) == pytest.approx(1e-4, rel=1e-12)

    def test_pointwise_bound(self):
        assert pointwise_bound(0.0, 4, 11) == 2.0**-11
        assert pointwise_bound(0.1, 4, 11) == pytest.approx(5.8828125e-4, abs=1e-15)
        # vacuous but still returned
        assert pointwise_bound(1.0, 1, 1) == 1.5

    def test_tvd_weight_examples(self, rm24):
        assert tvd_weight_bound(rm24, 0.0) == 0.0
        assert tvd_weight_bound(REP31, 0.5) == 0.125
        # all terms are dyadic at eps=1/4, so fsum must hit the exact rational
        assert tvd_weight_bound(rm24, 0.25) == float(DELTA_RM24_EPS25)

    def test_tvd_weight_vs_rational_oracle(self, rm24):
        for eps in (0.05, 0.17, 0.3, 0.45):
            exact = sum(
                Fraction(c) * Fraction(eps) ** l for l, c in rm24.nonzero() if l
            )
            assert tvd_weight_bound(rm24, eps) == pytest.approx(
                float(exact), rel=1e-14
            )

    @given(st.data(), st.floats(0.0, 1.0))
    def test_tvd_weight_sums_only_the_nonzero_counts(self, data, eps):
        # a zero count adds an exact 0.0 and fsum is correctly rounded, so the
        # sparse sum is the dense one over all n + 1 counts, bit for bit
        n, k = data.draw(st.integers(1, 4096)), data.draw(st.integers(1, 64))
        weights = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=8, unique=True))
        counts, rest = [1] + [0] * n, (1 << k) - 1
        for l in weights[:-1]:
            counts[l] = data.draw(st.integers(0, rest))
            rest -= counts[l]
        counts[weights[-1]] = rest
        w = WeightDistribution(n, k, tuple(counts))
        dense = math.fsum(w.counts[l] * eps**l for l in range(w.n, 0, -1))
        assert tvd_weight_bound(w, eps).hex() == dense.hex()

    def test_tvd_worst(self):
        assert tvd_worst_bound(11, 4, 0.0) == 0.0
        assert tvd_worst_bound(11, 4, 0.25) == 8.0
        # the paper's point: the weight bound beats this wildly here
        assert tvd_weight_bound(enumerate_weights(rm_generator(2, 4)), 0.25) < 1.0

    def test_hmin_examples(self):
        assert hmin_bound(11, 4, 0.0) == 1.0
        assert hmin_bound(11, 4, 0.1) == pytest.approx(HMIN_11_4_01, abs=1e-12)
        raw = hmin_bound(1, 1, 1.0)
        assert raw == pytest.approx(1 - math.log2(3), abs=1e-12)
        assert clamp01(raw) == 0.0


class TestEntropyLowerBound:
    def test_delta_zero_is_exactly_one(self):
        assert entropy_lower_bound(0.0, 11, "standard") == 1.0
        assert entropy_lower_bound(0.0, 11, "as-printed") == 1.0

    def test_binary_alphabet_at_delta_one(self):
        # M=2: log_M(M-1)=0 and h(1/2)=1, so the bound collapses to 0
        assert entropy_lower_bound(1.0, 1, "standard") == 0.0

    def test_pinned_values_rm24(self, rm24):
        delta = tvd_weight_bound(rm24, 0.25)
        assert entropy_lower_bound(delta, 11, "standard") == pytest.approx(
            ENTROPY_RM24_STANDARD, abs=1e-12
        )
        assert entropy_lower_bound(delta, 11, "as-printed") == pytest.approx(
            ENTROPY_RM24_AS_PRINTED, abs=1e-12
        )

    def test_zero_from_the_point_mass_delta_on(self):
        # f reaches 0 at delta = 2(1 - 2^-k), a point mass's, and would rise
        # after it; from there on the bound is exactly 0
        assert entropy_lower_bound(5.0, 4) == entropy_lower_bound(2.0, 4) == 0.0
        for k in (1, 2, 4, 11, 24):
            top = 2.0 - 2.0 ** (1 - k)
            for variant in ("standard", "as-printed"):
                for delta in (top, math.nextafter(top, 3.0), 2.0, 5.0, 2.0**k):
                    assert entropy_lower_bound(delta, k, variant) == 0.0
            # one ulp below, f is 0 but for rounding
            assert abs(entropy_lower_bound(math.nextafter(top, 0.0), k)) < 1e-12

    def test_parameter_errors(self):
        with pytest.raises(ValueError, match="nonnegative"):
            entropy_lower_bound(-0.1, 4)
        with pytest.raises(ValueError, match="variant"):
            entropy_lower_bound(0.5, 4, "fancy")

    def test_nonincreasing_in_delta_up_to_two(self):
        for k in (1, 2, 3, 11):
            values = [
                entropy_lower_bound(d, k, "standard")
                for d in np.linspace(0.0, 2.0, 201)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] == 0.0

    def test_as_printed_at_least_standard_inside_unit_delta(self):
        for k in (1, 2, 5, 11):
            for d in np.linspace(0.01, 0.99, 50):
                std = entropy_lower_bound(float(d), k, "standard")
                ap = entropy_lower_bound(float(d), k, "as-printed")
                assert ap >= std - 1e-15


@st.composite
def small_codes(draw):
    k = draw(st.integers(1, 10))
    n = draw(st.integers(k, 16))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
    G = BitMatrix.from_dense(((np.array(rows)[:, None] >> np.arange(n)) & 1).astype(np.uint8))
    assume(rank(G) == k)
    return G


class TestSweepAgainstOracle:
    """Every sweep column that claims a bound holds against the exact
    oracle's statistics (stats_from_profile), within 1e-12 of rounding."""

    @given(G=small_codes(), eps=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    def test_standard_columns_hold(self, G, eps):
        stats = stats_from_profile(output_weight_profile(G), eps)
        row = sweep(enumerate_weights(LinearCode(G)), [eps])[0]
        tol = 1e-12
        assert row.bias_bound >= float(stats.coord_biases.max()) - tol
        assert row.pointwise_bound >= stats.max_prob - tol
        assert min(row.tvd_weight, row.tvd_worst) >= stats.delta - tol
        assert row.hmin_bound <= stats.min_entropy + tol
        assert max(row.entropy_weight_raw, row.entropy_worst_raw) <= stats.shannon + tol

    @pytest.mark.parametrize("rows, eps, shannon", [
        (["110", "011"], 0.99, 0.0678),  # [3,2,2]: the weight bound 2.94 is past 1.5
        ("rm:2,4", 1.0, 0.0),  # every output is 0: delta bound 2047
    ], ids=["3-2-2", "rm24"])
    def test_entropy_columns_past_the_point_mass_delta(self, rows, eps, shannon):
        # with delta clamped at 2 these printed 0.2075 and 6.41e-05, above
        # the exact rate
        code = rm_generator(2, 4) if rows == "rm:2,4" else LinearCode(
            BitMatrix.from_dense([[int(c) for c in r] for r in rows]))
        stats = stats_from_profile(output_weight_profile(code.generator), eps)
        assert stats.shannon == pytest.approx(shannon, abs=1e-4)
        row = sweep(enumerate_weights(code), [eps])[0]
        assert (row.entropy_weight_raw, row.entropy_worst_raw) == (0.0, 0.0)
        assert max(row.entropy_weight, row.entropy_worst) <= stats.shannon

    def test_as_printed_is_not_a_lower_bound(self):
        # the [2,1] repetition code at eps 0.91: exact delta 0.8281, where the
        # as-printed form exceeds the exact rate and the standard one does not
        stats = stats_from_profile(output_weight_profile(BitMatrix.from_dense([[1, 1]])), 0.91)
        assert stats.delta == pytest.approx(0.8281)
        assert stats.shannon == pytest.approx(0.4228, abs=1e-4)
        assert entropy_lower_bound(stats.delta, 1, "as-printed") == pytest.approx(0.4355,
                                                                                  abs=1e-4)
        assert entropy_lower_bound(stats.delta, 1, "standard") <= stats.shannon


class TestOrderingInvariants:
    def test_weight_between_zero_and_worst_random_codes(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            k = int(rng.integers(1, 8))
            n = int(rng.integers(k, 13))
            w = enumerate_weights(LinearCode(random_full_rank(rng, k, n)))
            from linext.codes import min_distance

            d = min_distance(w)
            for eps in np.linspace(0.0, 1.0, 21):
                eps = float(eps)
                tw = tvd_weight_bound(w, eps)
                middle = (2.0**k - 1) * eps**d
                assert tw <= middle * (1 + 1e-12) + 1e-15
                assert middle <= tvd_worst_bound(k, d, eps)

    def test_weight_bound_nondecreasing(self, rm24):
        grid = np.linspace(0.0, 1.0, 60)
        vals = [tvd_weight_bound(rm24, float(e)) for e in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestChecks:
    def test_names_kinds_order(self, rm24):
        stats = stats_from_profile(output_weight_profile(rm_generator(2, 4).generator), 0.2)
        rows = checks(rm24, 0.2, stats, 0.0)
        assert [(c.name, c.kind) for c in rows] == [
            ("tvd-weight", "upper"),
            ("tvd-worst", "upper"),
            ("pointwise", "upper"),
            ("coord-bias", "upper"),
            ("entropy", "lower"),
            ("min-entropy", "lower"),
        ]
        stat = {c.name: c.stat for c in rows}
        bound = {c.name: c.bound for c in rows}
        assert stat["tvd-weight"] == stat["tvd-worst"] == stats.delta
        assert bound["tvd-weight"] == tvd_weight_bound(rm24, 0.2)
        assert bound["min-entropy"] == hmin_bound(11, 4, 0.2)
        assert all(c.tol == 0.0 and c.ok for c in rows)

    @pytest.mark.parametrize("kind", ["upper", "lower"])
    def test_equality_holds(self, kind):
        assert Check("x", kind, 0.25, 0.25, 0.0).ok

    def test_tolerance_is_absolute_slack(self):
        assert not Check("x", "upper", 0.3, 0.25, 0.01).ok
        assert Check("x", "upper", 0.3, 0.25, 0.05).ok
        assert not Check("x", "lower", 0.2, 0.25, 0.01).ok
        assert Check("x", "lower", 0.2, 0.25, 0.05).ok

    def test_unmeasured_or_untoleranced_checks_are_not_built(self, rm24):
        exact = stats_from_profile(output_weight_profile(rm_generator(2, 4).generator), 0.2)
        every = {c.name: c for c in checks(rm24, 0.2, exact, 1e-12)}
        assert all(c.tol == 1e-12 for c in every.values())
        # sampled stats: entropy and min-entropy have no sampling tolerance
        sampled = dataclasses.replace(exact, samples=20_000)
        rows = checks(rm24, 0.2, sampled)
        assert [c.name for c in rows] == ["tvd-weight", "tvd-worst", "pointwise", "coord-bias"]
        for c in rows:
            assert (c.kind, c.stat, c.bound) == (every[c.name].kind, every[c.name].stat,
                                                 every[c.name].bound)
            assert c.tol > 0
        # every check gets tol on top of its sampling tolerance
        assert [c.tol + 0.5 for c in rows] == [c.tol for c in checks(rm24, 0.2, sampled, 0.5)]
        # only the coordinate biases measured: only coord-bias is built
        tally = ExactStats(coord_biases=exact.coord_biases, samples=20_000)
        assert [c.name for c in checks(rm24, 0.2, tally)] == ["coord-bias"]

    def test_unbuilt_checks_evaluate_nothing(self):
        # k = 2036: 2.0**k and (1 << k)/N overflow a double, and only the
        # coordinate-bias check, which needs neither, is built
        k = 2036
        # the [k+1, k] even-weight code: A_l = C(k+1, l) for even l
        w = WeightDistribution(k + 1, k, tuple(math.comb(k + 1, l) * (l % 2 == 0)
                                               for l in range(k + 2)))
        stats = ExactStats(coord_biases=np.zeros(k), samples=10)
        (c,) = checks(w, 0.1, stats)
        assert (c.name, c.stat, c.ok) == ("coord-bias", 0.0, True)


class TestSamplingTolerances:
    @pytest.mark.parametrize("k, n, b", [(16, 100, 2.0**-16), (11, 4_000_000, 0.0405),
                                         (1, 10, 1.0), (24, 10**8, 2.0**-24)])
    def test_pointwise_is_bernstein_union_bounded(self, k, n, b):
        t = pointwise_tolerance(k, n, b)
        # 2^k buckets, each one-sided exp(-N·t^2 / (2(b + t/3))), sum to alpha
        assert 2.0**k * math.exp(-n * t * t / (2 * (b + t / 3))) == pytest.approx(ALPHA)
        L = math.log(2.0**k / ALPHA)
        assert t == pytest.approx((L / 3 + math.sqrt(L * L / 9 + 2 * b * n * L)) / n)

    def test_pointwise_at_100_blocks_clears_one_sample(self):
        # any 100 samples have max_prob >= 0.01, so at k = 16 a tolerance
        # under 0.01 - 2^-16 fails every run on a correct code
        t = pointwise_tolerance(16, 100, 2.0**-16)
        assert round(t, 2) == 0.12 and t > 0.01 - 2.0**-16

    def test_pointwise_flags_a_bucket_past_bound_and_tolerance(self, rm24):
        # a synthetic sample whose max_prob is over b + t must FAIL
        b = pointwise_bound(0.1, 4, 11)
        n = 100_000
        t = pointwise_tolerance(11, n, b)
        for max_prob, ok in ((b + t, True), (b + 1.01 * t, False), (2 * b, False)):
            stats = ExactStats(coord_biases=np.zeros(11), samples=n, pmf=None, delta=0.0,
                               tvd=0.0, shannon=1.0, min_entropy=1.0, max_prob=max_prob)
            (c,) = [c for c in checks(rm24, 0.1, stats) if c.name == "pointwise"]
            assert (c.bound, c.tol, c.ok) == (b, t, ok)


    @pytest.mark.parametrize("k, n", [(1, 2000), (4, 50_000), (11, 20_000), (11, 4_000_000),
                                      (24, 10**8)])
    def test_tvd_is_weissman_at_alpha(self, k, n):
        t = tvd_tolerance(k, n)
        # P(|p_hat - p|_1 >= t) <= 2^(2^k)·exp(-N·t^2/2), which is alpha at t
        assert 2.0**k * math.log(2.0) - n * t * t / 2 == pytest.approx(math.log(ALPHA))
        assert t == pytest.approx(math.sqrt(2 * (2**k * math.log(2) + math.log(1 / ALPHA)) / n))

    def test_tvd_at_the_stream_shape(self):
        # [16,11] at 4·10^6 blocks, where 6·sqrt(2^k/N) gave 0.136
        assert round(tvd_tolerance(11, 4_000_000), 4) == 0.0267

    def test_tvd_flags_a_delta_the_old_tolerance_passed(self, rm24):
        # a synthetic sample whose delta is past the bound by more than the
        # Weissman tolerance but less than 6·sqrt(2^k/N) must FAIL
        n = 4_000_000
        b, t, old = tvd_weight_bound(rm24, 0.2), tvd_tolerance(11, n), 6 * math.sqrt(2**11 / n)
        assert t < old
        for delta, ok in ((b + t, True), (b + (t + old) / 2, False), (b + 0.99 * old, False)):
            stats = ExactStats(coord_biases=np.zeros(11), samples=n, delta=delta,
                               tvd=delta / 2, max_prob=2.0**-11)
            (c,) = [c for c in checks(rm24, 0.2, stats) if c.name == "tvd-weight"]
            assert (c.bound, c.tol, c.ok) == (b, t, ok)


class TestSweep:
    def test_grid_of_single_zero(self, rm24):
        (row,) = sweep(rm24, [0.0])
        assert row.tvd_weight == 0.0
        assert row.tvd_worst == 0.0
        assert row.entropy_weight == 1.0
        assert row.entropy_worst == 1.0
        assert row.hmin_bound == 1.0

    def test_rm24_grid_invariants(self, rm24):
        rows = sweep(rm24, linear_grid(0.01, 0.5, 50))
        assert len(rows) == 50
        for r in rows:
            assert r.tvd_weight <= r.tvd_worst
            assert 0.0 <= r.entropy_weight <= 1.0
            assert 0.0 <= r.hmin_bound <= 1.0
            if r.tvd_weight <= 1.0 and r.tvd_worst <= 1.0:
                assert r.entropy_weight >= r.entropy_worst
        tw = [r.tvd_weight for r in rows]
        assert all(b >= a for a, b in zip(tw, tw[1:]))

    def test_grid_validation(self, rm24):
        with pytest.raises(ValueError, match="empty"):
            sweep(rm24, [])
        with pytest.raises(ValueError, match="increasing"):
            sweep(rm24, [0.2, 0.2])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sweep(rm24, [0.5, 1.5])

    def test_linear_grid_validation(self):
        assert linear_grid(0.0, 1.0, 3) == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError):
            linear_grid(0.5, 0.1, 5)
        with pytest.raises(ValueError):
            linear_grid(0.1, 0.5, 1)


class TestCsv:
    def test_header_and_shape(self, rm24):
        buf = io.StringIO()
        write_csv(sweep(rm24, [0.1, 0.2]), buf, comments=["hello"])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == CSV_HEADER
        assert len(lines) == 4
        assert lines[2].endswith(",standard")
        assert len(lines[2].split(",")) == 11

    def test_twelve_significant_digits(self):
        assert format_real(1 / 3) == "0.333333333333"
        assert format_real(8.0) == "8"
        assert format_real(5.8828125e-4) == "0.00058828125"

    def test_byte_stable(self, rm24):
        grid = linear_grid(0.01, 0.5, 50)
        a, b = io.StringIO(), io.StringIO()
        write_csv(sweep(rm24, grid), a)
        write_csv(sweep(rm24, grid), b)
        assert a.getvalue() == b.getvalue()
