import io
import math
from fractions import Fraction

import numpy as np
import pytest

from linext.bounds import (
    CSV_HEADER,
    bias_bound,
    checks,
    clamp01,
    entropy_lower_bound,
    format_real,
    hmin_bound,
    holds,
    linear_grid,
    pointwise_bound,
    sweep,
    tvd_weight_bound,
    tvd_worst_bound,
    write_csv,
)
from linext.codes import LinearCode, WeightDistribution, enumerate_weights, rm_generator
from linext.pipeline import exact_output_pmf

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

    def test_delta_clamped_to_two(self):
        assert entropy_lower_bound(5.0, 4) == entropy_lower_bound(2.0, 4)

    def test_parameter_errors(self):
        with pytest.raises(ValueError, match="nonnegative"):
            entropy_lower_bound(-0.1, 4)
        with pytest.raises(ValueError, match="variant"):
            entropy_lower_bound(0.5, 4, "fancy")

    def test_nonincreasing_in_delta_up_to_one(self):
        for k in (1, 3, 11):
            values = [
                entropy_lower_bound(d, k, "standard")
                for d in np.linspace(0.0, 1.0, 101)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_as_printed_at_least_standard_inside_unit_delta(self):
        for k in (1, 2, 5, 11):
            for d in np.linspace(0.01, 0.99, 50):
                std = entropy_lower_bound(float(d), k, "standard")
                ap = entropy_lower_bound(float(d), k, "as-printed")
                assert ap >= std - 1e-15


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
        stats = exact_output_pmf(rm_generator(2, 4).generator, 0.2)
        rows = checks(rm24, 0.2, stats)
        assert [(name, kind) for name, kind, _, _ in rows] == [
            ("tvd-weight", "upper"),
            ("tvd-worst", "upper"),
            ("pointwise", "upper"),
            ("coord-bias", "upper"),
            ("entropy", "lower"),
            ("min-entropy", "lower"),
        ]
        stat = {name: s for name, _, s, _ in rows}
        bound = {name: b for name, _, _, b in rows}
        assert stat["tvd-weight"] == stat["tvd-worst"] == stats.delta
        assert bound["tvd-weight"] == tvd_weight_bound(rm24, 0.2)
        assert bound["min-entropy"] == hmin_bound(11, 4, 0.2)
        assert all(holds(kind, s, b, 0.0) for _, kind, s, b in rows)

    @pytest.mark.parametrize("kind", ["upper", "lower"])
    def test_equality_holds(self, kind):
        assert holds(kind, 0.25, 0.25, 0.0)

    def test_tolerance_is_absolute_slack(self):
        assert not holds("upper", 0.3, 0.25, 0.01)
        assert holds("upper", 0.3, 0.25, 0.05)
        assert not holds("lower", 0.2, 0.25, 0.01)
        assert holds("lower", 0.2, 0.25, 0.05)


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
