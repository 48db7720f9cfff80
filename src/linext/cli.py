"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error (argparse also uses 2), 3 infeasible computation. A run whose
reader closes stdout early keeps the code it would have had.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds, codes, pipeline
from .errors import InfeasibleError
from .gf2 import DECIMAL, DECIMAL_FLOAT, parse_matrix

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

_fmt = bounds.format_real


def _parse_code_selector(text: str):
    if not text.startswith("rm:"):
        raise ValueError(f"unknown code selector {text!r}; expected rm:<r>,<m>")
    try:
        r, m = map(int, text[3:].split(","))
    except ValueError:
        raise ValueError(f"bad Reed-Muller selector {text!r}; expected rm:<r>,<m>") from None
    return r, m


def _load_code(args) -> codes.LinearCode:
    """Resolve --code or --matrix, of which the parser allows one, into a LinearCode."""
    if args.code is not None:
        return codes.rm_generator(*_parse_code_selector(args.code))
    return codes.LinearCode(parse_matrix(Path(args.matrix).read_text()), label=args.matrix)


def _eps_grid(args):
    if args.eps is not None:
        if not 0.0 <= args.eps <= 1.0:
            raise ValueError(f"--eps must be in [0, 1], got {args.eps}")
        return [args.eps]
    return bounds.linear_grid(args.eps_min, args.eps_max, args.steps)


def _load_weights(args, blocks=None):
    """(code, weights, route) for code-info, bounds-sweep and simulate.

    --weights wins over enumeration and must match the generator's [n,k].
    It is parsed before the code is built. --weights alone gives code None.
    With blocks, simulate's source of blocks·n bits is checked against its
    cap once the code is built, before any weight is counted.
    """
    w = None if args.weights is None else codes.parse_weights(Path(args.weights).read_text())
    if args.code is None and args.matrix is None:
        if w is None:
            raise ValueError("specify a code via --code, --matrix or --weights")
        return None, w, "external"
    code = _load_code(args)
    if blocks is not None:
        pipeline.check_source(blocks, code.n)
    if w is not None and (w.n, w.k) != (code.n, code.k):
        raise ValueError(f"{args.weights} holds the weights of an [{w.n},{w.k}] code, "
                         f"not of the [{code.n},{code.k}] generator")
    if w is None:
        return (code, *codes.weight_distribution(code, args.cap))
    return code, w, "external"


def _emit(lines, code: int) -> int:
    """Print lines on stdout and return code, the run's exit code, also when
    the reader has closed stdout: stdout then points at os.devnull, which
    takes what is left unread, so neither this print nor the interpreter's
    flush at exit fails. Each command prints once, after its last check."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def cmd_code_info(args) -> int:
    code, w, route = _load_weights(args)
    d = codes.min_distance(w)
    return _emit([f"label: {code.label if code else args.weights}", f"n: {w.n}",
                  f"k: {w.k}", f"d: {d}", f"weights-via: {route}",
                  "weight distribution (weight count):",
                  *(f"  {l} {c}" for l, c in w.nonzero())], EXIT_OK)


def cmd_bounds_sweep(args) -> int:
    paths = [p for p in (args.out, args.svg) if p is not None]
    if len(paths) == 2 and pipeline._same_file(*paths):
        raise ValueError(f"--out and --svg both name {args.svg}; the chart would replace the CSV")
    grid = _eps_grid(args)
    # both paths are opened, which creates but truncates nothing, before the
    # weights are counted: a bad path exits 2 without that walk. Whatever
    # ends the run before the files are written (exit 2 or 3, or
    # KeyboardInterrupt) removes each file this run created and changes no
    # old file
    new = [p for p in paths if not os.path.exists(p)]
    try:
        for p in paths:
            open(p, "a").close()
        _, w, route = _load_weights(args)
        rows = bounds.sweep(w, grid, args.h_variant)
        comments = [
            f"source: {args.code or args.matrix or args.weights} (weights via {route})",
            f"code: [{w.n},{w.k},{codes.min_distance(w)}]",
        ]
        if args.out is not None:
            with open(args.out, "w", newline="") as fp:
                bounds.write_csv(rows, fp, comments)
        if args.svg is not None:
            with open(args.svg, "w") as fp:
                fp.write(_svg_chart(rows, f"[{w.n},{w.k}] entropy bounds"))
    except BaseException:
        for p in filter(os.path.exists, new):
            os.remove(p)
        raise
    if args.out is not None:
        lines = [f"wrote {len(rows)} rows to {args.out}"]
    else:
        csv = io.StringIO()
        bounds.write_csv(rows, csv, comments)
        lines = [csv.getvalue().rstrip("\n")]
    if args.svg is not None:
        lines.append(f"wrote chart to {args.svg}")
    return _emit(lines, EXIT_OK)


def cmd_extract(args) -> int:
    if args.baseline == "von-neumann":
        label, block, extract = "von-neumann", 2, pipeline.von_neumann
    else:
        code = _load_code(args)  # construction rejects rank-deficient G
        label, block = code.label, code.n
        extract = functools.partial(pipeline.linear_extract, code.generator)
    t0 = time.perf_counter()
    bits_in, bits_out = pipeline.extract_file(extract, block, args.infile, args.out)
    elapsed = time.perf_counter() - t0  # read, extract and write together
    rate = bits_in / elapsed if elapsed > 0 else float("inf")
    print(f"throughput_mbit_s: {rate / 1e6:.1f}", file=sys.stderr)
    return _emit([f"extractor: {label}", f"blocks: {bits_in // block}",
                  f"bits_in: {bits_in}", f"bits_out: {bits_out}"], EXIT_OK)


def _stats_lines(stats) -> list:
    """The measured stats of an ExactStats as key=value lines."""
    lines = [f"{f}={_fmt(getattr(stats, f))}" for f in pipeline._REAL_FIELDS
             if getattr(stats, f) is not None]
    lines.append("coord_biases=" + ",".join(map(_fmt, stats.coord_biases)))
    if stats.samples is not None:
        lines.append(f"samples={stats.samples}")
    return lines


def _check_table(head, stat: str, rows) -> int:
    """Print the lines of head, a column header, one row per (eps, Check)
    of rows and the verdict line; exit 1 when any check fails, which is
    decided before the first line is printed. The real columns are 19
    wide, the longest _fmt string: sign, 12 digits, point, "e-" and 3
    exponent digits."""
    rows = list(rows)
    failures = sum(not c.ok for _, c in rows)
    return _emit([
        *head, f"{'eps':<19}  {'check':<11}  {stat:<19}  {'bound':<19}  status",
        *(f"{_fmt(eps):<19}  {c.name:<11}  {_fmt(c.stat):<19}  "
          f"{_fmt(c.bound):<19}  {'PASS' if c.ok else 'FAIL'}" for eps, c in rows),
        f"{failures} bound violation(s)" if failures else "all bounds hold",
    ], EXIT_VERIFY_FAIL if failures else EXIT_OK)


def cmd_verify(args) -> int:
    grid = _eps_grid(args)
    code = _load_code(args)
    try:
        profile = pipeline.output_weight_profile(code.generator)
    except InfeasibleError as exc:
        raise InfeasibleError(f"{exc}; try `linext simulate`") from None
    # A_l = #{u : wt(uG) = l}: G's own weights, counted from the oracle's walk
    counts = np.bincount(profile, minlength=code.n + 1).tolist()
    w = codes.WeightDistribution(code.n, code.k, tuple(counts))
    d = codes.min_distance(w)
    # every eps's stats before any output: a grid part that fails exits 3
    # with stdout empty
    stats = pipeline.grid_stats(profile, grid)
    return _check_table([f"verify {code.label} [{code.n},{code.k},{d}] tol={_fmt(args.tol)}"],
                        "exact", ((eps, c) for eps, s in zip(grid, stats)
                                  for c in bounds.checks(w, eps, s, args.tol)))


def cmd_simulate(args) -> int:
    spec = pipeline.BiasedSourceSpec(args.eps, args.seed)
    code, w, _ = _load_weights(args, args.blocks)
    codes.min_distance(w)  # the trivial code has none: exit 2 before any draw
    stats = pipeline.simulated_stats(code.generator, spec, args.blocks)
    results = bounds.checks(w, args.eps, stats)
    return _check_table([
        f"simulate {code.label} [{code.n},{code.k}] eps={_fmt(args.eps)} "
        f"seed={args.seed}", f"blocks={args.blocks}", *_stats_lines(stats),
        *(f"tol_{c.name}={_fmt(c.tol)}" for c in results), f"alpha={_fmt(bounds.ALPHA)}"],
        "sampled", ((args.eps, c) for c in results))


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

    curves = zip(("entropy_weight", "entropy_worst", "hmin_bound"),
                 ("#1f77b4", "#d62728", "#2ca02c"))
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
    for idx, (name, color) in enumerate(curves):
        poly = " ".join(xy(r.eps, getattr(r, name)) for r in rows)
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
    """argparse type: a finite `kind` value >= lo, written in ASCII decimal
    (DECIMAL, or DECIMAL_FLOAT for a float)."""

    def parse(text: str):
        try:
            if not (DECIMAL if kind is int else DECIMAL_FLOAT).fullmatch(text):
                raise ValueError
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}") from None
        if not lo <= value < math.inf:  # float() reads 1e400 as inf
            raise argparse.ArgumentTypeError(f"must be finite and at least {lo}, got {text!r}")
        return value + 0  # "-0" reads as 0.0, not -0.0

    return parse


def _cap(text: str) -> int:
    """argparse type of --cap: an int from 0 to codes.ENUMERATION_CEILING."""
    cap = _at_least(0)(text)
    if cap > codes.ENUMERATION_CEILING:
        raise argparse.ArgumentTypeError(
            f"{cap} is over the enumeration ceiling {codes.ENUMERATION_CEILING}")
    return cap


def _add_code_flags(p, weights=True, required=False):
    """Add --code and --matrix as one mutually exclusive group, which is
    returned, and with weights also --weights and --cap."""
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--code", help="code selector, e.g. rm:2,4")
    group.add_argument("--matrix", help="generator matrix file")
    if weights:
        p.add_argument("--weights", help="external weight distribution file")
        p.add_argument(
            "--cap", type=_cap, default=codes.ENUMERATION_CAP,
            help="weight enumeration cap on the code dimension, at most "
                 f"{codes.ENUMERATION_CEILING} (default %(default)s)",
        )
    return group


def _add_eps_flags(p):
    """Add --eps and the grid flags; linear_grid and _eps_grid check their
    ranges."""
    eps = _at_least(0.0, float)
    p.add_argument("--eps", type=eps, help="single input bias")
    p.add_argument("--eps-min", type=eps, default=0.01, help="grid start (default %(default)s)")
    p.add_argument("--eps-max", type=eps, default=0.5, help="grid end (default %(default)s)")
    p.add_argument("--steps", type=_at_least(1), default=50, help="grid points (default %(default)s)")


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
    source = _add_code_flags(p, weights=False, required=True)
    source.add_argument("--baseline", choices=["von-neumann"], help="use a baseline instead of G")
    p.add_argument("--in", dest="infile", required=True, help="input stream file")
    p.add_argument("--out", required=True, help="output stream file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="exact oracle vs every bound; exit 1 on violation")
    _add_code_flags(p, weights=False, required=True)
    _add_eps_flags(p)
    p.add_argument(
        "--tol", type=_at_least(0.0, float), default=1e-12,
        help="absolute slack (default %(default)s)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo source + extraction vs bounds")
    _add_code_flags(p, required=True)
    p.add_argument("--eps", type=_at_least(0.0, float), required=True, help="input bias")
    p.add_argument(
        "--blocks", type=_at_least(1), default=100000,
        help="number of n-bit blocks (default %(default)s)",
    )
    p.add_argument(
        "--seed", type=_at_least(0), default=0, help="source seed (default %(default)s)"
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
