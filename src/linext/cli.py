"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error (argparse also uses 2), 3 infeasible computation.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import bounds, codes, pipeline
from .errors import InfeasibleError
from .gf2 import parse_matrix

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

_fmt = bounds.format_real


def _parse_code_selector(text: str):
    if not text.startswith("rm:"):
        raise ValueError(f"unknown code selector {text!r}; expected rm:<r>,<m>")
    body = text[3:].split(",")
    try:
        if len(body) != 2:
            raise ValueError
        return int(body[0]), int(body[1])
    except ValueError:
        raise ValueError(f"bad Reed-Muller selector {text!r}; expected rm:<r>,<m>") from None


def _read_text(path: str) -> str:
    with open(path) as fp:
        return fp.read()


def _load_code(args) -> codes.LinearCode:
    """Resolve --code / --matrix into a LinearCode, attaching --weights."""
    selected = [s for s in (getattr(args, "code", None), getattr(args, "matrix", None)) if s]
    if len(selected) != 1:
        raise ValueError("specify exactly one code source: --code rm:<r>,<m> or --matrix FILE")
    weights = None
    if getattr(args, "weights", None):
        weights = codes.parse_weights(_read_text(args.weights))
    if args.code:
        r, m = _parse_code_selector(args.code)
        code = codes.rm_generator(r, m)
        if weights is not None:
            code = codes.LinearCode(code.generator, code.label, weights)
        return code
    G = parse_matrix(_read_text(args.matrix))
    return codes.LinearCode(G, label=args.matrix, weights=weights)


def _eps_grid(args):
    if args.eps is not None:
        if not 0.0 <= args.eps <= 1.0:
            raise ValueError(f"--eps must be in [0, 1], got {args.eps}")
        return [args.eps]
    return bounds.linear_grid(args.eps_min, args.eps_max, args.steps)


def _load_weights(args):
    """Resolve --code/--matrix (plus --weights) or --weights alone into
    (label, weight distribution, route)."""
    if args.code or args.matrix:
        code = _load_code(args)
        w, route = codes.weight_distribution(code, args.cap)
        return code.label, w, route
    if args.weights:
        return args.weights, codes.parse_weights(_read_text(args.weights)), "external"
    raise ValueError("specify a code via --code, --matrix or --weights")


def cmd_code_info(args) -> int:
    label, w, route = _load_weights(args)
    d = codes.min_distance(w)
    print(f"label: {label}")
    print(f"n: {w.n}")
    print(f"k: {w.k}")
    print(f"d: {d}")
    print(f"weights-via: {route}")
    print("weight distribution (weight count):")
    for l, c in w.nonzero():
        print(f"  {l} {c}")
    return EXIT_OK


def cmd_bounds_sweep(args) -> int:
    grid = _eps_grid(args)
    _, w, route = _load_weights(args)
    rows = bounds.sweep(w, grid, args.h_variant)
    comments = [
        f"source: {args.code or args.matrix or args.weights} (weights via {route})",
        f"code: [{w.n},{w.k},{codes.min_distance(w)}]",
    ]
    # both files are written before any stdout, so a bad path prints nothing
    if args.out:
        with open(args.out, "w", newline="") as fp:
            bounds.write_csv(rows, fp, comments)
    if args.svg:
        with open(args.svg, "w") as fp:
            fp.write(_svg_chart(rows, f"[{w.n},{w.k}] entropy bounds"))
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        bounds.write_csv(rows, sys.stdout, comments)
    if args.svg:
        print(f"wrote chart to {args.svg}")
    return EXIT_OK


def cmd_extract(args) -> int:
    if args.baseline is None:
        code = _load_code(args)  # construction rejects rank-deficient G
    stream = pipeline.BitStream.read(args.infile)
    if args.baseline == "von-neumann":
        t0 = time.perf_counter()
        out = pipeline.von_neumann(stream)
        elapsed = time.perf_counter() - t0
        blocks = len(stream) // 2
        label = "von-neumann"
    else:
        G = code.generator
        t0 = time.perf_counter()
        out = pipeline.linear_extract(G, stream)
        elapsed = time.perf_counter() - t0
        blocks = len(stream) // G.cols
        label = code.label
    out.write(args.out)
    print(f"extractor: {label}")
    print(f"blocks: {blocks}")
    print(f"bits_in: {len(stream)}")
    print(f"bits_out: {len(out)}")
    rate = len(stream) / elapsed if elapsed > 0 else float("inf")
    print(f"throughput_mbit_s: {rate / 1e6:.1f}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    grid = _eps_grid(args)
    code = _load_code(args)
    try:
        profile = pipeline.output_weight_profile(code.generator)
    except InfeasibleError as exc:
        raise InfeasibleError(f"{exc}; try `linext simulate`") from None
    w, _ = codes.weight_distribution(code, args.cap)
    failures = 0
    print(f"verify {code.label or 'matrix'} [{code.n},{code.k},{codes.min_distance(w)}] "
          f"tol={_fmt(args.tol)}")
    print(f"{'eps':<10}  {'check':<11}  {'exact':<15}  {'bound':<15}  status")
    for eps in grid:
        # stats (a 2^k pmf) is not bound to a name, so it is freed before the next eps
        for name, kind, stat, bound in bounds.checks(
            w, eps, pipeline.stats_from_profile(profile, eps)
        ):
            ok = bounds.holds(kind, stat, bound, args.tol)
            failures += not ok
            print(
                f"{_fmt(eps):<10}  {name:<11}  {_fmt(stat):<15}  "
                f"{_fmt(bound):<15}  {'PASS' if ok else 'FAIL'}"
            )
    if failures:
        print(f"{failures} bound violation(s)")
        return EXIT_VERIFY_FAIL
    print("all bounds hold")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = pipeline.BiasedSourceSpec(args.eps, args.seed)
    code = _load_code(args)
    n, k = code.n, code.k
    if not args.marginal_only:
        try:
            pipeline.check_histogram(k)
        except InfeasibleError as exc:
            raise InfeasibleError(f"{exc} (pass --marginal-only)") from None
    w, _ = codes.weight_distribution(code, args.cap)
    out = pipeline.linear_extract(code.generator, pipeline.generate(spec, args.blocks * n))
    header = [
        f"simulate {code.label or 'matrix'} [{n},{k}] eps={_fmt(args.eps)} seed={args.seed}",
        f"blocks={args.blocks}",
    ]
    coord_tol = pipeline.coord_bias_tolerance(k, args.blocks)
    alpha = _fmt(pipeline.COORD_BIAS_ALPHA)
    if args.marginal_only:
        bias = float(pipeline.marginal_biases(out, k).max())
        print("\n".join(header))
        print(f"coord_bias_max={_fmt(bias)}")
        print(f"coord_tol={_fmt(coord_tol)} alpha={alpha}")
        ok = bounds.holds("upper", bias, bounds.bias_bound(args.eps, codes.min_distance(w)),
                          coord_tol)
        print(f"coord-bias <= eps^d + tol: {'PASS' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_VERIFY_FAIL
    stats = pipeline.empirical_stats(out, k)
    nf = pipeline.multinomial_noise_floor(k, stats.samples)
    # per-bucket frequency noise, inflated for the max over 2^k buckets
    point_tol = 3.0 * math.sqrt(2.0 * k * 2.0**-k / stats.samples)
    # first-order propagation of max_prob noise through -log2(max)/k
    hmin_tol = point_tol / (stats.max_prob * k * math.log(2.0))
    # name -> (label, scale, tolerance, note on the tolerance); the tvd rows
    # print delta/2 against bound/2 (exact in binary floating point);
    # entropy has no statistical tolerance yet and stays unchecked
    policy = {
        "tvd-weight": ("tvd <= weight-bound/2 + 3nf", 0.5, 3 * nf, ""),
        "tvd-worst": ("tvd <= worst-bound/2 + 3nf", 0.5, 3 * nf, ""),
        "pointwise": ("max_prob <= pointwise + tol", 1.0, point_tol, ""),
        "coord-bias": ("coord_bias <= eps^d + tol", 1.0, coord_tol, f" alpha={alpha}"),
        "min-entropy": ("min_entropy >= lacharme - tol", 1.0, hmin_tol, ""),
    }
    print("\n".join(header + pipeline.stats_lines(stats)))
    print(f"noise_floor={_fmt(nf)}")
    failures = 0
    for name, kind, stat, bound in bounds.checks(w, args.eps, stats):
        if name not in policy:
            continue
        label, scale, tol, note = policy[name]
        stat, bound = stat * scale, bound * scale
        ok = bounds.holds(kind, stat, bound, tol)
        failures += not ok
        print(f"{label}: stat={_fmt(stat)} bound={_fmt(bound)} tol={_fmt(tol)}{note} "
              f"{'PASS' if ok else 'FAIL'}")
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def _svg_chart(rows, title: str) -> str:
    """Minimal polyline chart of the three entropy curves against eps."""
    width, height = 640, 440
    left, right, top, bot = 60, 20, 40, 50
    pw, ph = width - left - right, height - top - bot
    x0, x1 = rows[0].eps, rows[-1].eps
    span = (x1 - x0) or 1.0

    def xy(eps, y):
        px = left + (eps - x0) / span * pw
        py = top + (1.0 - y) * ph
        return f"{px:.2f},{py:.2f}"

    curves = (
        ("entropy_weight", "#1f77b4", [(r.eps, r.entropy_weight) for r in rows]),
        ("entropy_worst", "#d62728", [(r.eps, r.entropy_worst) for r in rows]),
        ("hmin_bound", "#2ca02c", [(r.eps, r.hmin_bound) for r in rows]),
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for i in range(11):
        y = i / 10
        py = top + (1.0 - y) * ph
        parts.append(
            f'<line x1="{left}" y1="{py:.2f}" x2="{left + pw}" y2="{py:.2f}" '
            f'stroke="#ddd"/>'
            f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y:.1f}</text>'
        )
    for i in range(6):
        eps = x0 + span * i / 5
        px = left + pw * i / 5
        parts.append(
            f'<text x="{px:.2f}" y="{top + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{eps:.2f}</text>'
        )
    parts.append(
        f'<text x="{left + pw / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">input bias eps</text>'
    )
    for idx, (name, color, pts) in enumerate(curves):
        poly = " ".join(xy(e, y) for e, y in pts)
        parts.append(f'<polyline points="{poly}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = top + 16 + 16 * idx
        parts.append(
            f'<line x1="{left + pw - 150}" y1="{ly - 4}" x2="{left + pw - 130}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
            f'<text x="{left + pw - 124}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _at_least(lo, kind=int):
    """argparse type: a finite `kind` value >= lo."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}") from None
        if not lo <= value < math.inf:  # also rejects nan and inf
            raise argparse.ArgumentTypeError(f"must be finite and at least {lo}, got {text!r}")
        return value

    return parse


def _add_code_flags(p, include_weights=True):
    p.add_argument("--code", help="code selector, e.g. rm:2,4")
    p.add_argument("--matrix", help="generator matrix file")
    if include_weights:
        p.add_argument("--weights", help="external weight distribution file")
    p.add_argument(
        "--cap", type=_at_least(0), default=codes.ENUMERATION_CAP,
        help="weight enumeration cap on the code dimension (default %(default)s)",
    )


def _add_eps_flags(p):
    p.add_argument("--eps", type=float, help="single input bias")
    p.add_argument("--eps-min", type=float, default=0.01, help="grid start (default %(default)s)")
    p.add_argument("--eps-max", type=float, default=0.5, help="grid end (default %(default)s)")
    p.add_argument("--steps", type=int, default=50, help="grid points (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linext",
        description="Linear binary extractors over GF(2) and their output-quality bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code-info", help="construct a code and report n, k, d and weights")
    _add_code_flags(p)
    p.set_defaults(func=cmd_code_info)

    p = sub.add_parser("bounds-sweep", help="evaluate all bounds over an eps grid, emit CSV")
    _add_code_flags(p)
    _add_eps_flags(p)
    p.add_argument("--h-variant", choices=bounds.H_VARIANTS, default="standard")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--svg", help="also write an SVG chart of the entropy curves")
    p.set_defaults(func=cmd_bounds_sweep)

    p = sub.add_parser("extract", help="run a stream file through an extractor")
    _add_code_flags(p, include_weights=False)
    p.add_argument("--in", dest="infile", required=True, help="input stream file")
    p.add_argument("--out", required=True, help="output stream file")
    p.add_argument("--baseline", choices=["von-neumann"], help="use a baseline instead of G")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="exact oracle vs every bound; exit 1 on violation")
    _add_code_flags(p)
    _add_eps_flags(p)
    p.add_argument(
        "--tol", type=_at_least(0.0, float), default=1e-12,
        help="absolute slack (default %(default)s)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo source + extraction vs bounds")
    _add_code_flags(p)
    p.add_argument("--eps", type=float, required=True, help="input bias")
    p.add_argument(
        "--blocks", type=_at_least(1), default=100000,
        help="number of n-bit blocks (default %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0, help="source seed (default %(default)s)")
    p.add_argument(
        "--marginal-only", action="store_true",
        help="skip 2^k binning; per-coordinate biases only",
    )
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
