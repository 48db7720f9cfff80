"""linext benchmark: one seeded workload through the CLI, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. One client runs the workload's command sequence again and again,
one command at a time, each in a fresh interpreter, so every measurement
includes the interpreter start and `import linext` that a user pays. Every
command's output is checked after it ends, outside the timed region.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1, traced and untraced sequences alternate and it reports the
per-layer metrics computed from the spans bench/traced_cli.py records.
The full record (machine facts, input digests, percentiles) is written to
.bench_out/<workload>-seed<N>-trace<T>.json.
"""

import os

# Before numpy loads: BLAS stays single-threaded here and in every child,
# so no thread runs beside the one command being measured.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Result, Workload  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CLI = "import sys; from linext.cli import main; sys.exit(main())"
# Set-up is timed twice per round, between sequences, so its median spans
# the whole run instead of the machine's state in its first second.
SETUP_PER_ROUND = 2
MIN_ROUNDS = 3
COMMAND_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "input_mbit_s": "Mbit/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Child:
    """One finished child process with its own wait4 rusage."""

    def __init__(self, argv, root, stdout_path, timeout):
        with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
            self.t_launch = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root, env=child_env(root))

            def on_alarm(signum, frame):
                proc.kill()

            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.t_end = time.monotonic()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = self.t_end - self.t_launch
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        with open(stdout_path, encoding="utf-8", errors="replace") as fp:
            self.stdout = fp.read()
        with open(stdout_path + ".err", encoding="utf-8", errors="replace") as fp:
            self.stderr = fp.read()


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


@dataclass
class Sequence:
    """One pass over a workload's commands."""

    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    source_bits: int = 0
    layers: Dict[str, float] = field(default_factory=dict)


def percentile_summary(values: List[float]) -> dict:
    """Median, plus the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values), "tail": None}
    for per_mille in (999, 990, 900):
        beyond = len(values) * (1000 - per_mille) // 1000
        if beyond >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[per_mille - 1]
            out["tail"] = {"p": per_mille / 1000, "value": q, "beyond": beyond}
            break
    return out


# -- spans to per-layer metrics ----------------------------------------------

PER_LAYER = {
    "pipeline.generate.calls": "count",
    "pipeline.generate.self_s": "s",
    "pipeline.generate.mbit_s": "Mbit/s",
    "pipeline.linear_extract.calls": "count",
    "pipeline.linear_extract.self_s": "s",
    "pipeline.linear_extract.mbit_s": "Mbit/s",
    "pipeline.linear_extract.bits_in": "bit",
    "pipeline.linear_extract.bits_out": "bit",
    "gf2.pack_bits.self_s": "s",
    "gf2.pack_bits.bytes": "byte",
    "gf2.pack_bits.setup_self_s": "s",
    "pipeline.BitStream.read.self_s": "s",
    "pipeline.BitStream.read.bytes": "byte",
    "pipeline.BitStream.write.self_s": "s",
    "pipeline.BitStream.write.bytes": "byte",
    "pipeline.von_neumann.self_s": "s",
    "pipeline.von_neumann.yield": "ratio",
    "pipeline.empirical_stats.self_s": "s",
    "pipeline.output_weight_profile.calls": "count",
    "pipeline.output_weight_profile.self_s": "s",
    "pipeline.output_weight_profile.inputs": "count",
    "pipeline.output_weight_profile.bytes": "byte",
    "pipeline.stats_from_profile.calls": "count",
    "pipeline.stats_from_profile.self_s": "s",
    "codes.enumerate_weights.calls": "count",
    "codes.enumerate_weights.self_s": "s",
    "codes.enumerate_weights.codewords": "count",
    "codes.dual_generator.self_s": "s",
    "codes.macwilliams_transform.self_s": "s",
    "bounds.sweep.self_s": "s",
    "bounds.write_csv.self_s": "s",
    "gf2.rank.calls": "count",
    "gf2.rank.self_s": "s",
    "gf2.parse_matrix.self_s": "s",
    "codes.rm_generator.self_s": "s",
    "cli.self_s": "s",
    "linext.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_share": "ratio",
}


def command_layers(record: dict, child: Child) -> Dict[str, float]:
    """Per-layer sums for one traced command from its span record.

    A span's self time is its duration minus the time its child spans
    cover. pack_bits is split by parent: under linear_extract it is the
    extraction's packing; anywhere else it builds a matrix.
    """
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for idx, (name, start, end, parent, counts) in enumerate(spans):
        self_s = end - start - child_time[idx]
        if name == "cli.main":
            name = "cli"  # cli.self_s: parsing, printing and the SVG
        if name == "gf2.pack_bits":
            under_extract = parent >= 0 and spans[parent][0] == "pipeline.linear_extract"
            add("gf2.pack_bits.self_s" if under_extract else "gf2.pack_bits.setup_self_s", self_s)
            if under_extract:
                add("gf2.pack_bits.bytes", counts["bytes"])
            continue
        add(f"{name}.self_s", self_s)
        add(f"{name}.calls", 1)
        add(f"{name}.span_s", end - start)
        for key, value in (counts or {}).items():
            add(f"{name}.{key}", value)
    import_s = record["import"][1] - record["import"][0]
    add("linext.import_s", import_s)
    add("trace.overhead_s", record["overhead_s"])
    accounted = import_s + sum(v for k, v in out.items() if k.endswith("self_s"))
    add("trace.unaccounted_s", child.wall_s - accounted)
    return out


def layer_metrics(traced: List[Sequence]) -> Dict[str, float]:
    def med(key):
        return statistics.median(s.layers.get(key, 0.0) for s in traced)

    def rate(bits_key, span_key):
        vals = [s.layers.get(bits_key, 0) / s.layers[span_key] / 1e6 for s in traced if s.layers.get(span_key)]
        return statistics.median(vals) if vals else 0.0

    m = {name: med(name) for name in PER_LAYER}  # sums and counts; ratios below
    m["pipeline.generate.mbit_s"] = rate("pipeline.generate.bits", "pipeline.generate.span_s")
    m["pipeline.linear_extract.mbit_s"] = rate("pipeline.linear_extract.bits_in", "pipeline.linear_extract.span_s")
    pairs = med("pipeline.von_neumann.bits_in") // 2
    m["pipeline.von_neumann.yield"] = med("pipeline.von_neumann.bits_out") / pairs if pairs else 0.0
    m["trace.wall_s"] = statistics.median(s.wall_s for s in traced)
    m["trace.unaccounted_share"] = statistics.median(
        s.layers.get("trace.unaccounted_s", 0.0) / s.wall_s for s in traced)
    return m


# -- machine facts -----------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fp:
            return fp.read()
    except OSError:
        return ""


def machine_facts(root: str) -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    llc = ""
    cache = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache):
        levels = []
        for idx in os.listdir(cache):
            if idx.startswith("index"):
                level = _read(f"{cache}/{idx}/level").strip()
                levels.append((int(level or 0), _read(f"{cache}/{idx}/size").strip()))
        llc = max(levels)[1] if levels else ""
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    commit, dirty = "unknown", None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        git = ["git", "-C", root]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": llc,
        "mem_total_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "git_dirty": dirty,
    }


# -- the closed loop ---------------------------------------------------------


class Runner:
    def __init__(self, root: str, work: str, corrupt: bool = False):
        self.root, self.work, self.corrupt = root, work, corrupt
        self.attempted = 0
        self.failures: List[str] = []

    def _child(self, argv) -> Child:
        return Child(argv, self.root, os.path.join(self.work, "child.out"), COMMAND_TIMEOUT_S)

    def setup_time(self, wl: Workload) -> float:
        """Fresh interpreter: import linext, build the workload's codes."""
        child = self._child([sys.executable, "-c", "import linext; " + wl.setup_code])
        self.attempted += 1
        if child.returncode != 0:
            self.failures.append(f"setup: exit code {child.returncode}: {child.stderr.strip()[-200:]}")
        return child.wall_s

    def sequence(self, wl: Workload, traced: bool) -> Sequence:
        seq = Sequence(traced)
        spans_path = os.path.join(self.work, "spans.json")
        for cmd in wl.commands:
            if traced:
                if os.path.exists(spans_path):
                    os.remove(spans_path)
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path] + cmd.args
            else:
                argv = [sys.executable, "-c", CLI] + cmd.args
            child = self._child(argv)
            seq.wall_s += child.wall_s
            seq.cpu_s += child.cpu_s
            seq.rss_mb = max(seq.rss_mb, child.rss_mb)
            seq.source_bits += cmd.source_bits
            res = Result(child.returncode, child.stdout)
            if self.corrupt and cmd.corrupt is not None:
                res = cmd.corrupt(res)
            self.attempted += 1
            why = cmd.check(res)
            if why is not None:
                self.failures.append(f"{cmd.label}: {why}: {child.stderr.strip()[-200:]}")
            if traced and os.path.exists(spans_path):
                with open(spans_path) as fp:
                    record = json.load(fp)
                for key, value in command_layers(record, child).items():
                    seq.layers[key] = seq.layers.get(key, 0.0) + value
        return seq

    def loop(self, wl: Workload, seconds: float, trace: bool):
        """Closed loop of rounds; stops before a round would run past `seconds`.

        A round is SETUP_PER_ROUND set-up timings and one sequence per mode
        (untraced, then traced when tracing). Returns (sequences, setup times).
        """
        seqs: List[Sequence] = []
        setup: List[float] = []
        modes = [False, True] if trace else [False]
        t0 = time.monotonic()
        rounds = 0
        while True:
            round_start = time.monotonic()
            setup += [self.setup_time(wl) for _ in range(SETUP_PER_ROUND)]
            seqs += [self.sequence(wl, traced) for traced in modes]
            rounds += 1
            now = time.monotonic()
            if rounds >= MIN_ROUNDS and now - t0 + (now - round_start) > seconds:
                return seqs, setup


def end_to_end(seqs: List[Sequence], setup: List[float]) -> Dict[str, dict]:
    series = {
        "wall_s": [s.wall_s for s in seqs],
        "input_mbit_s": [s.source_bits / s.wall_s / 1e6 for s in seqs],
        "cpu_s": [s.cpu_s for s in seqs],
        "peak_rss_mb": [s.rss_mb for s in seqs],
        "setup_s": setup,
    }
    return {name: percentile_summary(vals) for name, vals in series.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Measure one workload; return the full record."""
    work = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        facts = machine_facts(root)
        wl = WORKLOADS[workload](seed, work)
        runner = Runner(root, work)
        seqs, setup = runner.loop(wl, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain = [s for s in seqs if not s.traced]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": facts,
        "inputs": wl.digests,
        "commands": [c.args for c in wl.commands],
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "error_rate": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:20],
        "end_to_end": end_to_end(plain, setup),
        "setup_s": setup,
        "sequences": [{"traced": s.traced, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mb": s.rss_mb}
                      for s in seqs],
    }
    if trace:
        record["per_layer"] = layer_metrics([s for s in seqs if s.traced])
    return record


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = {k: {"value": record["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k]["median"], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    for name, unit in END_TO_END.items():
        s = record["end_to_end"][name]
        tail = "no percentile has 10 samples beyond it"
        if s["tail"]:
            tail = f"p{s['tail']['p'] * 100:g} {s['tail']['value']:.6g}"
        print(f"  {name:<14} {s['median']:.6g} {unit} (median of n={s['n']}; {tail})")
    print(f"  {'error_rate':<14} {record['error_rate']:.6g} "
          f"({record['failed']} failed of {record['attempted']} operations)")
    for why in record["failures"]:
        print(f"    failure: {why}")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<40} {value:.6g} {PER_LAYER[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "linext", "__init__.py")):
        print("error: run from the root of a linext checkout (no src/linext here)", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fp:
        json.dump(record, fp, indent=1)
    print_summary(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
