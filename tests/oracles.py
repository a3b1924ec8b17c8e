"""Independent brute-force oracles used by the tests.

Everything here is written against the mathematical definitions only, in
plain Python (numpy for symmetric eigenvalues, which ``rip_ref`` batches), so it
shares no code path with the package implementations it checks.
"""

import math
from itertools import combinations, islice

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
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def prox_oracle(kind, mu, groups, v, step, sweeps=40):
    """Coordinate descent with exact 1-D ternary-search minimization.

    Multi-started (at v, v/2, and 0) because the Euclidean-norm terms are
    non-smooth at a zero group; the best start wins.  Returns (z, objective).
    """
    n = len(v)
    radius = max(max(abs(x) for x in v), 1.0) * 2.0 + step

    def solve_from(z0):
        z = list(z0)
        for _ in range(sweeps):
            moved = 0.0
            for i in range(n):
                def slice_obj(t, i=i):
                    old = z[i]
                    z[i] = t
                    val = prox_objective(kind, mu, groups, z, v, step)
                    z[i] = old
                    return val

                t_star = _ternary_min(slice_obj, -radius, radius)
                if slice_obj(0.0) <= slice_obj(t_star):
                    t_star = 0.0
                moved = max(moved, abs(t_star - z[i]))
                z[i] = t_star
            if moved < 1e-10 * radius:
                break
        return z, prox_objective(kind, mu, groups, z, v, step)

    best = None
    for z0 in (list(v), [0.5 * x for x in v], [0.0] * n):
        z, obj = solve_from(z0)
        if best is None or obj < best[1]:
            best = (z, obj)
    zero_obj = prox_objective(kind, mu, groups, [0.0] * n, v, step)
    if zero_obj < best[1]:
        best = ([0.0] * n, zero_obj)
    return best


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
    return 0.0 if f(0.0) <= f(mid) else mid


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
