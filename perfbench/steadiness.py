#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads comparison,rip] \
        [--out perfbench/results/steadiness.json]

Workloads and run length come from BENCHMARK.json; runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spreads(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, elapsed_s=time.monotonic() - t0)
            runs.append(result)
            print(workload, seed, f"{result['elapsed_s']:.1f}s", result["correct"],
                  f"{result['failed']}/{result['attempted']}",
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        names = runs[0]["metrics"]
        summary = {name: spreads([r["metrics"][name]["value"] for r in runs]) for name in names}
        for name, s in summary.items():
            print(f"  {workload} {name}: median {s['median']:.6g}, spread {s['spread']:.4f}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
