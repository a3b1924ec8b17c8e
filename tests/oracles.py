"""Independent brute-force oracles used by the tests.

Everything here is written against the mathematical definitions only, in
plain Python (numpy for symmetric eigenvalues, which ``rip_ref`` batches, and
for the cases ``prox_oracle`` descends on together), so it shares no code
path with the package implementations it checks.  ``golden_mismatches``
compares a study report with its golden record under ``GOLDEN``.
"""

import math
from itertools import combinations, islice
from pathlib import Path

import numpy as np


def penalty_ref(kind, mu, groups, z):
    """Penalty value straight from the definitions (plain floats)."""
    if kind == "l1":
        return sum(abs(v) for v in z)
    if kind == "l2sq":
        return sum(v * v for v in z)
    if kind == "en":
        return mu * sum(abs(v) for v in z) + (1 - mu) * sum(v * v for v in z)
    total = 0.0
    for g in groups:
        l1 = sum(abs(z[i]) for i in g)
        l2 = math.sqrt(sum(z[i] * z[i] for i in g))
        total += (1 - mu) * l1 + mu * l2
    return total


def prox_objective(kind, mu, groups, z, v, step):
    dist = sum((a - b) ** 2 for a, b in zip(z, v))
    return step * penalty_ref(kind, mu, groups, z) + 0.5 * dist


def _ternary_min(f, lo, hi, iters=48):
    """Ternary search on [lo, hi]; lo and hi may be arrays of intervals searched together."""
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        left = f(m1) <= f(m2)
        lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
    return 0.5 * (lo + hi)


def prox_oracle(cases, sweeps=40):
    """Coordinate descent with exact 1-D ternary-search minimization, on a
    batch of ``(kind, mu, groups, v, step)`` cases at once (numpy over the cases).

    Multi-started (at v, v/2, and 0) because the Euclidean-norm terms are
    non-smooth at a zero group; the best start wins, and zero if it is lower
    still.  A case's descent stops at the first sweep that moves no coordinate
    by 1e-10 of its search radius.  Returns ``(z, objective)``: ``z`` has one
    row per case, zero past the case's length.
    """
    size = np.array([len(case[3]) for case in cases])
    width, B = int(size.max()), len(cases)
    V, member, weights = np.zeros((B, width)), np.zeros((B, width, width)), np.zeros((B, 3))
    for row, (kind, mu, groups, v, _) in enumerate(cases):
        V[row, :len(v)] = v
        if kind in ("l1", "l2sq", "en"):  # no groups: a*||z||_1 + b*||z||^2, as in penalty_ref
            groups = [range(len(v))]
            weights[row] = {"l1": (1.0, 0.0, 0.0), "l2sq": (0.0, 1.0, 0.0), "en": (mu, 1 - mu, 0.0)}[kind]
        else:  # sum over groups of (1 - mu)*||z_g||_1 + mu*||z_g||_2
            weights[row] = (1 - mu, 0.0, mu)
        for g, idx in enumerate(groups):
            member[row, g, list(idx)] = 1.0
    steps = np.array([case[4] for case in cases], dtype=float)
    # the three starts of case r are rows r, B + r and 2B + r
    V, member, weights, steps, size = (np.concatenate([x] * 3) for x in (V, member, weights, steps, size))
    radius = np.maximum(np.abs(V).max(axis=1), 1.0) * 2.0 + steps

    def objective(z, rows):
        a, b, c = weights[rows].T
        penalty = (a * np.einsum("rgd,rd->r", member[rows], np.abs(z)) + b * (z * z).sum(axis=1)
                   + c * np.sqrt(np.einsum("rgd,rd->rg", member[rows], z * z)).sum(axis=1))
        return steps[rows] * penalty + 0.5 * ((z - V[rows]) ** 2).sum(axis=1)

    z = np.concatenate([V[:B], 0.5 * V[:B], 0.0 * V[:B]])
    active = np.ones(3 * B, bool)
    for _ in range(sweeps):
        moved = np.zeros(3 * B)
        for i in range(width):
            rows = np.flatnonzero(active & (i < size))

            def slice_obj(t, rows=rows, i=i):
                w = z[rows]
                w[:, i] = t
                return objective(w, rows)

            t_star = _ternary_min(slice_obj, -radius[rows], radius[rows])
            t_star[slice_obj(0.0) <= slice_obj(t_star)] = 0.0
            moved[rows] = np.maximum(moved[rows], np.abs(t_star - z[rows, i]))
            z[rows, i] = t_star
        active &= moved >= 1e-10 * radius
        if not active.any():
            break

    obj = objective(z, np.arange(3 * B)).reshape(3, B)
    best = np.argmin(obj, axis=0)  # the first start of the lowest objective
    z, obj = z.reshape(3, B, width)[best, np.arange(B)], obj[best, np.arange(B)]
    zero_obj = np.array([prox_objective(kind, mu, groups, [0.0] * len(v), v, step)
                         for kind, mu, groups, v, step in cases])
    zero = zero_obj < obj
    z[zero], obj[zero] = 0.0, zero_obj[zero]
    return z, obj


def sparsity_index_ref(x, k, norm):
    """Minimum over all k-subsets of the norm of the off-support entries."""
    n = len(x)
    if k >= n:
        return 0.0
    best = math.inf
    for keep in combinations(range(n), k):
        rest = [x[i] for i in range(n) if i not in keep]
        if norm == "l1":
            val = sum(abs(v) for v in rest)
        else:
            val = math.sqrt(sum(v * v for v in rest))
        best = min(best, val)
    return best


def scalar_lasso_scan(y_i, lam, span=20.0, points=2_000_001):
    """1-D scan oracle for argmin (y - z)^2 + lam*|z| (coarse scan + ternary)."""
    def f(z):
        return (y_i - z) ** 2 + lam * abs(z)

    lo, hi = -span, span
    mid = _ternary_min(f, lo, hi, iters=200)
    return 0.0 if f(0.0) <= f(mid) else float(mid)


def rip_ref(A, k):
    """``(delta_k, argmax_support)`` by one ``eigvalsh`` per size-``k`` support,
    keeping the first support in lexicographic order that attains the maximum.
    The supports go through one stacked ``eigvalsh`` per 8,192 of them; the
    chunk size does not change the result."""
    gram, supports = A.T @ A, combinations(range(A.shape[1]), k)
    best, best_support = -math.inf, None
    while (block := np.fromiter(islice(supports, 8192), dtype=(np.intp, k))).size:
        evals = np.linalg.eigvalsh(gram[block[:, :, None], block[:, None, :]])
        devs = np.maximum(evals[:, -1] - 1.0, 1.0 - evals[:, 0])
        if devs[j := np.argmax(devs)] > best:  # the first maximum of the chunk
            best, best_support = devs[j], tuple(int(i) for i in block[j])
    return max(best, 0.0), best_support


def triplet_text_ref(A):
    """A triplet file's text, one plain-Python format per entry: header ``m n
    nnz``, then ``row col value`` for each entry ``!= 0`` in row-major order
    (NaN kept, ±0.0 left out), values at 17 significant digits."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    entries = [f"{i} {j} {v:.17g}\n" for i, row in enumerate(A.tolist()) for j, v in enumerate(row) if v != 0]
    return f"{m} {n} {len(entries)}\n" + "".join(entries)


# Golden study records: each file is ``StudyReport.to_json()`` of run_grouping_paths(0),
# run_path_nonequivalence(0), run_scaling("small") or, checked by C7's own run, run_comparison(example4);
# regenerated only with a CHANGES.md line naming what moved.
GOLDEN = Path(__file__).parent / "data" / "golden"
# Across OpenBLAS's Haswell, SkylakeX, Sandybridge, Nehalem and Prescott kernels and 1 or 2 threads, a value moved
# by at most 1e-11 of its own magnitude (in a list, of the list's largest); a residual, wherever the eps = 0 walk
# stopped under its 1e-9*||y|| target, by at most 2.1e-6
_GOLDEN_RTOL, _GOLDEN_RESIDUAL_RTOL = 1e-9, 1e-4
_GOLDEN_SELECTIONS = ("lambda", "mu")  # a scalar one is a grid point a study selected: compared exactly


def golden_mismatches(golden, report, path="", field="", scale=None):
    """Where the JSON-loaded ``report`` leaves ``golden``: keys, lengths, counts, flags, strings and selections
    exactly, each other float within its field's tolerance."""
    if isinstance(golden, dict):
        if not isinstance(report, dict) or golden.keys() != report.keys():
            return [f"{path}: keys"]
        return [bad for k in golden for bad in golden_mismatches(golden[k], report[k], f"{path}/{k}", k)]
    if isinstance(golden, list):
        if not isinstance(report, list) or len(golden) != len(report):
            return [f"{path}: length"]
        top = max((abs(v) for v in golden + report if isinstance(v, float)), default=0.0)
        return [bad for i, pair in enumerate(zip(golden, report))
                for bad in golden_mismatches(*pair, f"{path}/{i}", field, top)]
    if isinstance(golden, float) and isinstance(report, float) and not (field in _GOLDEN_SELECTIONS and scale is None):
        rtol = _GOLDEN_RESIDUAL_RTOL if field == "residual" else _GOLDEN_RTOL
        ok = abs(golden - report) <= rtol * (max(abs(golden), abs(report)) if scale is None else scale)
    else:
        ok = type(golden) is type(report) and golden == report
    return [] if ok else [f"{path}: {golden!r} -> {report!r}"]
