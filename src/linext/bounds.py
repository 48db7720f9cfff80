"""Output-quality bounds as pure functions of code data and input bias.

Conventions: eps is the full bias |P(1) - P(0)| of the input source, delta
is twice the total variation distance of the k-bit output from uniform, and
entropies are base-2^k so everything lives in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from .codes import WeightDistribution, min_distance

CSV_HEADER = (
    "eps,bias_bound,pointwise_bound,tvd_weight,tvd_worst,hmin_bound,"
    "entropy_weight_raw,entropy_weight,entropy_worst_raw,entropy_worst,h_variant"
)

H_VARIANTS = ("standard", "as-printed")


def bias_bound(eps: float, d: int) -> float:
    """Per-coordinate output bias bound eps**d (minimum distance d)."""
    return eps**d


def pointwise_bound(eps: float, d: int, k: int) -> float:
    """Upper bound 2^-k + eps^d on any single output probability."""
    return 2.0**-k + eps**d


def tvd_weight_bound(w: WeightDistribution, eps: float) -> float:
    """Weight-distribution bound on delta: sum of A_l eps^l over l >= 1.

    Summed exactly (fsum) from the smallest terms up; counts below the
    minimum distance are zero so starting at l = 1 changes nothing.
    """
    return math.fsum(w.counts[l] * eps**l for l in range(w.n, 0, -1))


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
    """Entropy-rate lower bound 1 - (δ/2)·log_M(M-1) - h(δ/2) with M = 2^k.

    delta is clamped to [0, 2] before use; the returned value is raw and
    may be negative (clamp01 for plotting). "standard" uses the base-M
    binary entropy h(x) = -x log_M x - (1-x) log_M(1-x) at x = δ/2 and is
    the provably sound choice; "as-printed" replaces log_M(δ/2) with
    log_M(δ) in the first term, which makes the bound strictly larger for
    δ in (0, 1).
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if variant not in H_VARIANTS:
        raise ValueError(f"unknown h variant {variant!r}; use one of {H_VARIANTS}")
    d = min(float(delta), 2.0)
    x = d / 2.0
    scale = 1.0 / (k * math.log(2.0))  # ln -> log base 2^k
    first = _xlog(x, 2.0**k - 1.0) * scale
    if variant == "standard":
        h = -(_xlog(x, x) + _xlog(1.0 - x, 1.0 - x)) * scale
    else:
        h = -(_xlog(x, d) + _xlog(1.0 - x, 1.0 - x)) * scale
    return 1.0 - first - h


def checks(w: WeightDistribution, eps: float, stats) -> List[tuple]:
    """Every bound check at one eps, as (name, kind, statistic, bound) rows.

    stats is an ExactStats from the exact oracle or from a histogram. Kind
    "upper" holds when statistic <= bound, "lower" when statistic >= bound.
    Both TVD statistics are on the delta scale (twice the TVD).
    """
    k, d = w.k, min_distance(w)
    return [
        ("tvd-weight", "upper", stats.delta, tvd_weight_bound(w, eps)),
        ("tvd-worst", "upper", stats.delta, tvd_worst_bound(k, d, eps)),
        ("pointwise", "upper", stats.max_prob, pointwise_bound(eps, d, k)),
        ("coord-bias", "upper", float(stats.coord_biases.max()), bias_bound(eps, d)),
        ("entropy", "lower", stats.shannon, entropy_lower_bound(stats.delta, k)),
        ("min-entropy", "lower", stats.min_entropy, hmin_bound(k, d, eps)),
    ]


def holds(kind: str, stat: float, bound: float, tol: float) -> bool:
    """Verdict of one check with absolute slack tol; equality holds."""
    return stat <= bound + tol if kind == "upper" else stat >= bound - tol


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


def sweep(
    w: WeightDistribution, eps_grid: Sequence[float], variant: str = "standard"
) -> List[BoundRow]:
    """Evaluate every bound on a strictly increasing eps grid in [0, 1]."""
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValueError("eps grid is empty")
    if any(not 0.0 <= e <= 1.0 for e in grid):
        raise ValueError("eps grid values must lie in [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly increasing")
    k = w.k
    d = min_distance(w)
    rows = []
    for e in grid:
        tw = tvd_weight_bound(w, e)
        tworst = tvd_worst_bound(k, d, e)
        ew = entropy_lower_bound(tw, k, variant)
        eworst = entropy_lower_bound(tworst, k, variant)
        rows.append(
            BoundRow(
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
            )
        )
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
        fields = [
            format_real(r.eps),
            format_real(r.bias_bound),
            format_real(r.pointwise_bound),
            format_real(r.tvd_weight),
            format_real(r.tvd_worst),
            format_real(r.hmin_bound),
            format_real(r.entropy_weight_raw),
            format_real(r.entropy_weight),
            format_real(r.entropy_worst_raw),
            format_real(r.entropy_worst),
            r.h_variant,
        ]
        fp.write(",".join(fields) + "\n")


def linear_grid(lo: float, hi: float, steps: int) -> List[float]:
    """Inclusive, evenly spaced eps grid with the sweep preconditions."""
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"need 0 <= min < max <= 1, got [{lo}, {hi}]")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
