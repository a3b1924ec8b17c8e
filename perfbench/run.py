#!/usr/bin/env python3
"""clotkit benchmark: one paper study per run, checked, timed, optionally traced.

Run from the root of a clotkit checkout:

    python3 perfbench/run.py --workload comparison --seed 104 --seconds 25 --trace 0

Workloads: comparison, rip, scaling (gated in BENCHMARK.json) and constrained.
The run pins every BLAS thread count to 1 before numpy loads, imports clotkit
from ``src/`` of the checkout, and works in a single process apart from the
short-lived set-up probes that measure ``setup_s``.  Every unit operation's
output is checked after the timed body.  The report ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the timed
body once plainly and once traced, and reports the per-layer metrics.
Times of CPU-bound workloads are corrected for the host's speed drift by the
probe in ``speed.py``; the uncorrected values are printed on a comment line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# The variables clotkit.cli pins for --threads; they only act if set before
# numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
DEFAULT_SEEDS = {"comparison": 104, "constrained": 99, "rip": 99, "scaling": 99}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the acceptance suite's seed for the workload)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="intended length of the timed body; sets the number of items")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_clotkit():
    """Import clotkit from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "clotkit", "__init__.py")):
        raise SystemExit(f"error: no clotkit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import clotkit
    from clotkit import cli

    if not os.path.abspath(clotkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: clotkit was imported from {clotkit.__file__}, not {SRC}")
    unpinned = set(cli._THREAD_VARS) - set(THREAD_VARS)
    if unpinned:
        raise SystemExit(f"error: clotkit.cli pins {sorted(unpinned)}, which this benchmark does not")


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "clotkit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def setup_probes(args, probe) -> list:
    """(raw, corrected) seconds from spawn to the end of set-up, each in a
    fresh process, with a speed probe just before and after each one."""
    import speed

    samples = []
    for _ in range(SETUP_PROBES):
        before = probe.run()
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw = (int(proc.stdout.split()[-1]) - t0) * 1e-9
        after = probe.run()
        samples.append((raw, raw * 2.0 * speed.NOMINAL_NS / (before + after)))
    return samples


def timed(fn, *args):
    t0 = time.perf_counter_ns()
    result = fn(*args)
    return result, (time.perf_counter_ns() - t0) * 1e-9


def measure(wl, state, probe):
    """Run the body once; returns (report, calls, (raw, corrected) wall,
    [(raw, corrected) per call]).  Workloads whose body is not CPU-bound
    are reported raw in both places."""
    import tracer as tracing

    probe.run()
    with tracing.Tracer(wl.unit, tracing.targets(wl.unit), after=probe.maybe if wl.cpu_bound else None) as tr:
        t0 = time.perf_counter_ns()
        report = wl.body(state)
        t1 = time.perf_counter_ns()
    probe.run()
    if not wl.cpu_bound:
        raw = (t1 - t0) * 1e-9
        return report, tr.calls, (raw, raw), [(c.ns * 1e-9,) * 2 for c in tr.calls]
    return report, tr.calls, probe.corrected(t0, t1), [probe.corrected(c.t0, c.t1) for c in tr.calls]


def traced_layers(wl, args):
    """Set up with tracing on, run the body plainly and then traced; returns
    (state, report, calls, tracer, per-layer metrics)."""
    import tracer as tracing
    import workloads

    tr = tracing.Tracer(wl.unit)
    with tr, tr.span("bench.setup"):
        state = wl.setup(args.seed, args.seconds)
    # the plain run wraps the unit as the untraced run does
    with tracing.Tracer(wl.unit, tracing.targets(wl.unit)):
        _, plain_s = timed(wl.body, state)
    setup_spans, setup_calls = len(tr.name), len(tr.calls)
    with tr, tr.span("bench.body"):
        report, traced_s = timed(wl.body, state)
    # the measured ratio is not drift-corrected (a probe inside the traced body
    # would land in the spans), so the modelled span cost goes next to it
    added_s = (len(tr.name) - setup_spans) * tracing.span_cost_ns() * 1e-9
    metrics = tracing.layer_metrics(tr, traced_s / plain_s - 1.0, added_s / (traced_s - added_s))
    tr.write(os.path.join(workloads.OUT, f"trace-{args.workload}-seed{args.seed}.npz"),
             {"workload": args.workload, "seed": args.seed, "seconds": args.seconds})
    return state, report, tr.calls[setup_calls:], tr, metrics


def run(args) -> int:
    load_clotkit()
    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.warm_up()
        wl.setup(args.seed, args.seconds)
        print(time.monotonic_ns())
        return 0

    info = []
    if args.trace:
        workloads.warm_up()
        state, report, calls, tr, metrics = traced_layers(wl, args)
    else:
        probe = speed.SpeedProbe()
        setup_samples = setup_probes(args, probe)
        workloads.warm_up()
        state = wl.setup(args.seed, args.seconds)
        report, calls, wall, ops = measure(wl, state, probe)
        metrics = {
            "wall_s": (wall[1], "s"),
            "op_p50_ms": (statistics.median(op[1] for op in ops) * 1e3, "ms"),
            "setup_s": (statistics.median(s[1] for s in setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        info.append(f"uncorrected: wall_s {wall[0]:.6g}, op_p50_ms {statistics.median(op[0] for op in ops) * 1e3:.6g}, "
                    f"setup_s {statistics.median(s[0] for s in setup_samples):.6g}; "
                    f"body {'speed-corrected' if wl.cpu_bound else 'not corrected (memory-bound)'}, "
                    f"median speed factor {probe.median_factor():.4f}")
        info.append("setup samples (s, corrected): " + ", ".join(f"{s[1]:.4f}" for s in setup_samples))

    checked = wl.check(state, calls, report)
    attempted = len(checked.outcomes)
    failed = sum(o.failed for o in checked.outcomes)
    wrong = sum(o.wrong for o in checked.outcomes)
    correct = checked.study_ok and wrong == 0 and attempted > 0
    if args.trace:
        correct = correct and tr.summary()["_negative_self_spans"] == 0

    print(f"# workload {wl.name}: {wl.describe(state)}")
    print("# env " + json.dumps(environment(args), sort_keys=True))
    for line in info:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_frac':40s} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} unit operations failed, {wrong} raised or missed a check while converged)")
    for note in checked.notes:
        print(f"# {note}")
    for o in [o for o in checked.outcomes if o.failed][:20]:
        print(f"# failed: {o.note}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
