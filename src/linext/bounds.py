"""Output-quality bounds as pure functions of code data and input bias.

Conventions: eps is the full bias |P(1) - P(0)| of the input source, delta
is twice the total variation distance of the k-bit output from uniform, and
entropies are base-2^k so everything lives in [0, 1].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import List, Sequence

from .codes import WeightDistribution, min_distance
from .errors import InfeasibleError

H_VARIANTS = ("standard", "as-printed")
# Cap on the points of an eps grid, checked before the grid is built.
GRID_CAP = 100_000
# False-alarm rate of each sampled check whose tolerance states one.
ALPHA = 1e-3


def bias_bound(eps: float, d: int) -> float:
    """Per-coordinate output bias bound eps**d (minimum distance d)."""
    return eps**d


def pointwise_bound(eps: float, d: int, k: int) -> float:
    """Upper bound 2^-k + eps^d on any single output probability."""
    return 2.0**-k + eps**d


def tvd_weight_bound(w: WeightDistribution, eps: float) -> float:
    """Weight-distribution bound on delta: sum of A_l eps^l over l >= 1.

    Summed over the nonzero counts only, correctly rounded (fsum), so the
    zero counts, each an exact 0.0 term, change nothing.
    """
    return math.fsum(c * eps**l for l, c in w.nonzero()[1:])


def tvd_worst_bound(k: int, d: int, eps: float) -> float:
    """Minimum-distance-only bound on delta: 2^k eps^d."""
    return 2.0**k * eps**d


def hmin_bound(k: int, d: int, eps: float) -> float:
    """Min-entropy lower bound 1 - log_2^k(1 + 2^k eps^d), raw (may be < 0)."""
    return 1.0 - math.log1p(2.0**k * eps**d) / (k * math.log(2.0))


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _xlog(a: float, b: float) -> float:
    # a*ln(b) with the 0*ln(0) := 0 continuity convention
    return a * math.log(b) if a != 0.0 else 0.0


def entropy_lower_bound(delta: float, k: int, variant: str = "standard") -> float:
    """Entropy-rate lower bound f(δ) = 1 - (δ/2)·log_M(M-1) - h(δ/2) with
    M = 2^k.

    "standard" uses the base-M binary entropy h(x) = -x log_M x -
    (1-x) log_M(1-x) at x = δ/2 and is the provably sound choice;
    "as-printed" replaces log_M(δ/2) with log_M(δ) in the first term, which
    makes the bound strictly larger for δ in (0, 1), and is not a lower
    bound even at the exact delta. The standard f falls from 1 at δ = 0 to
    0 at δ = 2(1 - 1/M), the delta of a point mass, and rises after it, so
    both forms are exactly 0 from that point on. Below it f is
    non-increasing, so it takes any upper bound on delta to a lower bound
    on the entropy rate: f(bound) <= f(exact δ) <= H. The returned value is
    raw and may be negative (clamp01 for plotting).
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if variant not in H_VARIANTS:
        raise ValueError(f"unknown h variant {variant!r}; use one of {H_VARIANTS}")
    if delta >= 2.0 - 2.0 ** (1 - k):
        return 0.0
    d = float(delta)
    x = d / 2.0
    scale = 1.0 / (k * math.log(2.0))  # ln -> log base 2^k
    first = _xlog(x, 2.0**k - 1.0) * scale
    h = -(_xlog(x, x if variant == "standard" else d) + _xlog(1.0 - x, 1.0 - x)) * scale
    return 1.0 - first - h


@dataclass(frozen=True)
class Check:
    """One bound check with absolute slack tol: kind "upper" holds when
    stat <= bound + tol, "lower" when stat >= bound - tol; equality holds."""

    name: str
    kind: str
    stat: float
    bound: float
    tol: float

    @property
    def ok(self) -> bool:
        s, b, t = self.stat, self.bound, self.tol
        return s <= b + t if self.kind == "upper" else s >= b - t


def tvd_tolerance(k: int, samples: int) -> float:
    """sqrt(2(2^k·ln 2 + ln(1/ALPHA))/N): the empirical pmf of N samples
    over 2^k buckets is at L1 distance t or more from the true pmf with
    probability at most 2^(2^k)·exp(-N·t^2/2) (Weissman, Ordentlich,
    Seroussi, Verdú & Weinberger, HP Labs 2003), which is ALPHA at this t.
    delta is an L1 distance from uniform, so by the triangle inequality a
    sampled delta passes the true one plus t with probability at most ALPHA."""
    return math.sqrt(2.0 * ((1 << k) * math.log(2.0) + math.log(1.0 / ALPHA)) / samples)


def coord_bias_tolerance(k: int, samples: int) -> float:
    """sqrt(2·ln(2k/ALPHA)/N): a coordinate's bias moves 2t when its
    ones-frequency over N samples moves t, which Hoeffding bounds by
    2·exp(-2N·t^2), so by a union bound over the k coordinates the largest
    deviation passes this tolerance with probability at most ALPHA."""
    return math.sqrt(2.0 * math.log(2 * k / ALPHA) / samples)


def pointwise_tolerance(k: int, samples: int, bound: float) -> float:
    """t = (L/3 + sqrt(L^2/9 + 2bNL))/N, L = ln(2^k/ALPHA), b = bound: a
    bucket's frequency over N samples, of variance at most p(1-p)/N <= b/N,
    passes p + t with probability at most exp(-N·t^2 / (2(b + t/3))) =
    ALPHA/2^k by Bernstein's inequality, so by a union bound over the 2^k
    buckets the largest passes b + t with probability at most ALPHA."""
    L = k * math.log(2.0) + math.log(1.0 / ALPHA)
    return (L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * bound * samples * L)) / samples


def checks(w: WeightDistribution, eps: float, stats, tol: float = 0.0) -> List[Check]:
    """Every bound check at one eps that stats decides, in a fixed order.

    stats is an ExactStats from the exact oracle, a histogram or simulate's
    tally; the TVD checks are on the delta scale (twice the TVD). Every check
    gets the slack tol, plus, for sampled stats (samples set), its own
    sampling tolerance at N = samples. Not built, nor their bound and
    tolerance evaluated (2.0**k overflows from k = 1024): a check whose
    statistic stats did not measure (None), and for sampled stats a check
    with no sampling tolerance (entropy, min-entropy)."""
    k, d, n = w.k, min_distance(w), stats.samples
    tvd_tol = lambda b: tvd_tolerance(k, n)
    # name, kind, statistic, bound, sampling tolerance of the bound (None: none)
    rows = [
        ("tvd-weight", "upper", stats.delta, lambda: tvd_weight_bound(w, eps), tvd_tol),
        ("tvd-worst", "upper", stats.delta, lambda: tvd_worst_bound(k, d, eps), tvd_tol),
        ("pointwise", "upper", stats.max_prob, lambda: pointwise_bound(eps, d, k),
         lambda b: pointwise_tolerance(k, n, b)),
        ("coord-bias", "upper", float(stats.coord_biases.max()), lambda: bias_bound(eps, d),
         lambda b: coord_bias_tolerance(k, n)),
        ("entropy", "lower", stats.shannon, lambda: entropy_lower_bound(stats.delta, k), None),
        ("min-entropy", "lower", stats.min_entropy, lambda: hmin_bound(k, d, eps), None),
    ]
    built = []
    for name, kind, stat, bound, sampling in rows:
        if stat is None or n is not None and sampling is None:
            continue
        b = bound()
        built.append(Check(name, kind, stat, b, tol if n is None else tol + sampling(b)))
    return built


@dataclass(frozen=True)
class BoundRow:
    """All bound values at one input bias; one CSV row of a sweep."""

    eps: float
    bias_bound: float
    pointwise_bound: float
    tvd_weight: float
    tvd_worst: float
    hmin_bound: float
    entropy_weight_raw: float
    entropy_weight: float
    entropy_worst_raw: float
    entropy_worst: float
    h_variant: str


# the CSV columns are BoundRow's fields, in declaration order
_COLUMNS = [f.name for f in fields(BoundRow)]
CSV_HEADER = ",".join(_COLUMNS)


def sweep(
    w: WeightDistribution, eps_grid: Sequence[float], variant: str = "standard"
) -> List[BoundRow]:
    """Evaluate every bound on a strictly increasing eps grid in [0, 1].

    The bounds take 2^k as a double, so k must be below 1024."""
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValueError("eps grid is empty")
    if any(not 0.0 <= e <= 1.0 for e in grid):
        raise ValueError("eps grid values must lie in [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly increasing")
    k = w.k
    if k >= sys.float_info.max_exp:
        raise InfeasibleError(f"k={k}: the bounds take 2^k as a double, which overflows "
                              f"from k={sys.float_info.max_exp}")
    d = min_distance(w)
    rows = []
    for e in grid:
        tw = tvd_weight_bound(w, e)
        tworst = tvd_worst_bound(k, d, e)
        ew = entropy_lower_bound(tw, k, variant)
        eworst = entropy_lower_bound(tworst, k, variant)
        rows.append(BoundRow(
            eps=e,
            bias_bound=bias_bound(e, d),
            pointwise_bound=pointwise_bound(e, d, k),
            tvd_weight=tw,
            tvd_worst=tworst,
            hmin_bound=clamp01(hmin_bound(k, d, e)),
            entropy_weight_raw=ew,
            entropy_weight=clamp01(ew),
            entropy_worst_raw=eworst,
            entropy_worst=clamp01(eworst),
            h_variant=variant,
        ))
    return rows


def format_real(x: float) -> str:
    """12 significant digits, the precision contract for all CSV/report reals."""
    return f"{x:.12g}"


def write_csv(rows: Sequence[BoundRow], fp, comments: Sequence[str] = ()) -> None:
    """Write sweep rows as CSV; byte-stable for a fixed input."""
    for c in comments:
        fp.write(f"# {c}\n")
    fp.write(CSV_HEADER + "\n")
    for r in rows:
        # read field by field: dataclasses.astuple deep-copies every value
        values = (getattr(r, c) for c in _COLUMNS)
        fp.write(",".join(v if isinstance(v, str) else format_real(v) for v in values) + "\n")


def linear_grid(lo: float, hi: float, steps: int) -> List[float]:
    """Inclusive, evenly spaced eps grid with the sweep preconditions; the
    last point is hi itself, which lo + (hi - lo)·1 can overshoot."""
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    if steps > GRID_CAP:
        raise InfeasibleError(f"{steps} grid points are over the cap {GRID_CAP}")
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"need 0 <= min < max <= 1, got [{lo}, {hi}]")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps - 1)] + [hi]
