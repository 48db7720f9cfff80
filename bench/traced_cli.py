"""Run one linext CLI command with spans around the public layer functions.

    python3 bench/traced_cli.py SPANS.json <linext arguments...>

Each listed function is wrapped wherever a linext module holds a reference
to it (``from .gf2 import pack_bits`` binds a second name in pipeline, so
patching gf2 alone would miss the extraction calls). Spans stay in memory
and are written to SPANS.json when the command ends, with the time spent
patching and in the wrappers' own bookkeeping (the tracing cost). Times are
time.monotonic(), which is CLOCK_MONOTONIC on Linux and so comparable with
the parent's launch and reap times.
"""

import time

T_FIRST = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

T_IMPORT = time.monotonic()
import linext  # noqa: E402,F401
import linext.cli  # noqa: E402

T_IMPORTED = time.monotonic()


def _nbytes(nbits):
    return (nbits + 7) // 8


# (module, attribute path, counts from (args, result)); names are
# "<module>.<attribute path>" without the package prefix.
TARGETS = [
    ("cli", "main", None),
    ("pipeline", "generate", lambda a, r: {"bits": len(r)}),
    ("pipeline", "linear_extract", lambda a, r: {"bits_in": len(a[1]), "bits_out": len(r)}),
    ("pipeline", "von_neumann", lambda a, r: {"bits_in": len(a[0]), "bits_out": len(r)}),
    ("pipeline", "empirical_stats", None),
    ("pipeline", "output_weight_profile", lambda a, r: {"inputs": 1 << a[0].cols, "bytes": r.nbytes}),
    ("pipeline", "stats_from_profile", None),
    ("pipeline", "BitStream.read", lambda a, r: {"bytes": _nbytes(len(r))}),
    ("pipeline", "BitStream.write", lambda a, r: {"bytes": _nbytes(len(a[0]))}),
    ("gf2", "pack_bits", lambda a, r: {"bytes": getattr(a[0], "nbytes", 0) + r.nbytes}),
    ("gf2", "rank", None),
    ("gf2", "parse_matrix", None),
    ("codes", "rm_generator", None),
    ("codes", "enumerate_weights", lambda a, r: {"codewords": 1 << r.k}),
    ("codes", "dual_generator", None),
    ("codes", "macwilliams_transform", None),
    ("bounds", "sweep", None),
    ("bounds", "write_csv", None),
]

spans = []  # [name, start, end, parent index or -1, counts]
_open = []
_cost = [0.0]  # seconds spent patching and in the wrappers' own bookkeeping


def _wrap(name, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t_enter = time.monotonic()
        span = [name, None, None, _open[-1] if _open else -1, None]
        _open.append(len(spans))
        spans.append(span)
        span[1] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            _open.pop()
        if count is not None:
            span[4] = count(args, result)
        _cost[0] += span[1] - t_enter + time.monotonic() - span[2]
        return result

    return traced


def install():
    modules = [m for key, m in sys.modules.items() if key == "linext" or key.startswith("linext.")]
    for mod_name, path, count in TARGETS:
        owner = sys.modules[f"linext.{mod_name}"]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        name = f"{mod_name}.{path}"
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(name, raw.__func__, count)))
            continue
        traced = _wrap(name, raw, count)
        for mod in modules:  # every module-level name bound to this function
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, traced)
        if cls_path:
            setattr(owner, attr, traced)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t_install = time.monotonic()
    install()
    _cost[0] += time.monotonic() - t_install
    code = 1
    try:
        code = linext.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        record = {
            "t_first": T_FIRST,
            "import": [T_IMPORT, T_IMPORTED],
            "t_last": time.monotonic(),
            "overhead_s": _cost[0],
            "spans": spans,
        }
        with open(out_path, "w") as fp:
            json.dump(record, fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
