"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --seeds 10                    # every workload
    python3 bench/repeat.py --workloads stream --seeds 5
    python3 bench/repeat.py --seeds 10 --trajectory LABEL # also append an entry

Runs bench/run.py once per (workload, seed), seeds 1..N, one at a time,
from the root of a checkout, with the run length from BENCHMARK.json. For
each end-to-end metric it prints the median and the quartiles of the
per-run values (statistics.quantiles, n=4) and the interquartile spread as
a share of the median, marking any spread above a third of the metric's
bound. With --trajectory it appends one JSON line to
bench/trajectory.jsonl: these summaries, seed 1's input digests, and the
per-layer metrics of one traced run per workload on seed 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    path = os.path.join(".bench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fp:
        record = json.load(fp)
    record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": values}


def main() -> int:
    with open("BENCHMARK.json") as fp:
        bench = json.load(fp)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trajectory", metavar="LABEL")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    entry = {"label": args.trajectory, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        records = [run_once(name, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"{name}: {args.seeds} runs of {seconds} s")
        summary = {}
        for metric, spec in metrics.items():
            s = spread([r["result"]["metrics"][metric]["value"] for r in records])
            bound = spec["bound"]
            flag = "" if s["iqr_share"] < bound / 3 else "  (above bound/3)"
            steady &= s["iqr_share"] < bound / 3
            print(f"  {metric:<14} median {s['median']:.6g} {spec['unit']}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  iqr/median {s['iqr_share']:.4f}  bound {bound}{flag}")
            summary[metric] = s
        print(f"  {'error_rate':<14} {failed / attempted:.6g} ({failed} failed of {attempted} operations)")
        entry["machine"] = records[0]["machine"]
        entry["workloads"][name] = {"end_to_end": summary, "attempted": attempted, "failed": failed,
                                    "inputs": records[0]["inputs"]}
        if args.trajectory:
            traced = run_once(name, 1, seconds, 1)
            entry["workloads"][name]["per_layer"] = traced["per_layer"]
    if args.trajectory:
        with open(os.path.join(HERE, "trajectory.jsonl"), "a") as fp:
            fp.write(json.dumps(entry) + "\n")
    print("steady" if steady else "not steady: a spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
