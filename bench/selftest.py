"""Self-test of the benchmark's own checks and inputs.

    python3 bench/selftest.py      # from the root of a linext checkout

1. The same seed gives identical input digests; another seed does not.
2. On every workload a clean traced sequence passes its checks and yields
   spans, and a sequence whose output is damaged (one output bit flipped,
   one weight count altered, ...) gives error_rate > 0.
3. Run in a directory that holds only the benchmark, run.py exits non-zero
   without printing a result.

Exits 0 when every part holds.
"""

import os
import shutil
import subprocess
import sys

import run  # sets the BLAS thread limits before numpy loads
from workloads import WORKLOADS


def digests(root: str, name: str, seed: int) -> dict:
    work = os.path.join(root, ".bench_work", f"selftest-{name}-{seed}")
    os.makedirs(work, exist_ok=True)
    try:
        return WORKLOADS[name](seed, work).digests
    finally:
        shutil.rmtree(work, ignore_errors=True)


def sequence_errors(root: str, name: str, corrupt: bool, traced: bool):
    work = os.path.join(root, ".bench_work", f"selftest-{name}-run")
    os.makedirs(work, exist_ok=True)
    try:
        runner = run.Runner(root, work, corrupt)
        seq = runner.sequence(WORKLOADS[name](3, work), traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return len(runner.failures) / runner.attempted, seq


def bare_directory_run(root: str) -> subprocess.CompletedProcess:
    bare = os.path.join(root, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "bench"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    problems = []
    for name in WORKLOADS:
        a, b, c = digests(root, name, 7), digests(root, name, 7), digests(root, name, 8)
        if a != b:
            problems.append(f"{name}: seed 7 gave different digests twice")
        if a == c:
            problems.append(f"{name}: seeds 7 and 8 gave identical digests")
        clean, seq = sequence_errors(root, name, corrupt=False, traced=True)
        if clean != 0 or "cli.self_s" not in seq.layers:
            problems.append(f"{name}: clean traced sequence had error_rate {clean} or no spans")
        damaged, _ = sequence_errors(root, name, corrupt=True, traced=False)
        if damaged == 0:
            problems.append(f"{name}: damaged output went unnoticed (error_rate 0)")
        print(f"{name}: digests stable, clean error_rate {clean:g}, damaged error_rate {damaged:g}")
    bare = bare_directory_run(root)
    if bare.returncode == 0 or bare.stdout.strip():
        problems.append("run.py outside a checkout exited 0 or printed a result")
    print(f"bare directory: exit {bare.returncode}, stdout {len(bare.stdout)} bytes")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
