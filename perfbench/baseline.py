#!/usr/bin/env python3
"""Re-take the ad-hoc timings listed as the ROADMAP baseline, under the
benchmark's conditions (one process, BLAS threads pinned to 1, warm-up first).

    python3 perfbench/baseline.py

writes perfbench/results/baseline.json.

Measures run_comparison on example4 with 5 replications, microseconds per
FISTA iteration inside it, exact_rip(devore(5,2), k=4), solve_constrained at
eps=0.05 with CLOT(0.1) on the normalized 25x125 DeVore matrix, and the
529x4000 DeVore matrix read and written as triplet and CSV files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

import run  # pins the BLAS threads before numpy loads
import speed

DRAWS = 20  # C5-style constrained draws; the median of them is reported
OUT = os.path.join(run.HERE, "results", "baseline.json")

ROADMAP = {
    "comparison_5reps_s": 18.0,
    "fista_us_per_iter": 43.9,
    "exact_rip_devore_k4_s": 22.0,
    "constrained_eps005_s": 0.72,
    "constrained_eps005_iters": 11200,
    "triplet_read_s": 0.15,
    "triplet_write_s": 0.18,
    "csv_read_s": 0.38,
    "csv_write_s": 0.32,
}


def seconds(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def speed_factor(probe, before: int) -> float:
    """Speed of the stretch since the probe that took ``before`` ns, against
    the probe's nominal speed (``speed.py``): above 1 is a fast spell."""
    return 2.0 * speed.NOMINAL_NS / (before + probe.run())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)

    run.load_clotkit()
    import numpy as np

    import tracer as tracing
    import workloads
    from clotkit import experiments, fileio, matrices, regularizers, rip, solvers

    workloads.warm_up()
    measured = {}
    # raw times on a shared VM swing with its speed; the probe factor of each
    # CPU-bound stretch is kept so that re-takes can be compared
    probe = speed.SpeedProbe()
    factors = {}
    before = probe.run()

    config = experiments.load_builtin_scenario("example4").to_dict()
    config["replications"] = 5
    lag = "solvers.solve_lagrangian"
    with tracing.Tracer(lag, tracing.targets(lag)) as rec:
        _, measured["comparison_5reps_s"] = seconds(experiments.run_comparison,
                                                     experiments.ScenarioConfig.from_dict(config))
    iters = sum(c.result.iterations for c in rec.calls)
    measured["comparison_solve_lagrangian_calls"] = len(rec.calls)
    measured["comparison_iterations"] = iters
    measured["fista_us_per_iter"] = 1e-3 * sum(c.ns for c in rec.calls) / iters
    factors["comparison"] = speed_factor(probe, before)

    before = probe.run()

    devore = matrices.devore_matrix(matrices.DeVoreParams(5, 2), normalize=True)
    est, measured["exact_rip_devore_k4_s"] = seconds(rip.exact_rip, devore, 4)
    measured["exact_rip_devore_k4_delta"] = est.delta_k
    measured["exact_rip_devore_k4_supports"] = math.comb(devore.shape[1], 4)
    factors["exact_rip"] = speed_factor(probe, before)

    before = probe.run()

    rng = np.random.default_rng(99)
    spec = regularizers.RegularizerSpec.clot(0.1)
    times, its = [], []
    for _ in range(DRAWS):
        x = np.zeros(devore.shape[1])
        x[rng.choice(devore.shape[1], size=1, replace=False)] = 2.0 * rng.standard_normal(1)
        eta = rng.standard_normal(devore.shape[0])
        eta *= rng.uniform(0.0, 0.05) / np.linalg.norm(eta)
        problem = solvers.Problem(devore, devore @ x + eta, solvers.Constrained(0.05))
        res, dt = seconds(solvers.solve_constrained, problem, spec)
        times.append(dt)
        its.append(res.iterations)
    measured["constrained_eps005_s"] = statistics.median(times)
    measured["constrained_eps005_iters"] = statistics.median(its)
    measured["constrained_eps005_draws"] = DRAWS
    factors["constrained"] = speed_factor(probe, before)

    big = matrices.devore_matrix(matrices.DeVoreParams(23, 2, 4000), normalize=False)
    os.makedirs(workloads.OUT, exist_ok=True)
    for kind, write, read in (("triplet", fileio.write_triplet, fileio.read_triplet),
                              ("csv", fileio.write_matrix_csv, fileio.read_matrix_csv)):
        path = os.path.join(workloads.OUT, f"baseline-{os.getpid()}.{kind}")
        try:
            _, measured[f"{kind}_write_s"] = seconds(write, path, big)
            measured[f"{kind}_bytes"] = os.path.getsize(path)
            back, measured[f"{kind}_read_s"] = seconds(read, path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        if not np.array_equal(back, big):
            raise RuntimeError(f"{kind} round trip changed the matrix")

    ratio = {k: measured[k] / v for k, v in ROADMAP.items()}
    doc = {"environment": run.environment(argparse.Namespace(workload="baseline", seed=99, seconds=0, trace=0)),
           "roadmap": ROADMAP, "measured": measured, "measured_over_roadmap": ratio,
           "speed_factor": factors}
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for key, value in ROADMAP.items():
        print(f"{key:32s} roadmap {value:<10g} measured {measured[key]:<12.4g} ratio {ratio[key]:.3f}")
    print("speed factor " + ", ".join(f"{k} {v:.3f}" for k, v in factors.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
