"""Independent brute-force oracles used by the tests.

Everything here is written against the mathematical definitions only, in
plain Python (numpy only for symmetric eigenvalues, and for the matrix
products of the power iteration's reference), so it shares no code path with
the package implementations it checks.
"""

import math
from itertools import combinations

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
    keeping the first support in lexicographic order that attains the maximum."""
    gram = A.T @ A
    best, best_support = -math.inf, None
    for support in combinations(range(A.shape[1]), k):
        evals = np.linalg.eigvalsh(gram[np.ix_(support, support)])
        dev = max(evals[-1] - 1.0, 1.0 - evals[0])
        if dev > best:
            best, best_support = dev, support
    return max(best, 0.0), best_support


def power_iteration_ref(apply, n, iters=50, tol=1e-10):
    """``(estimate, products)`` of the largest eigenvalue of the positive
    semidefinite operator ``apply`` by power iteration: from the unit vector
    along ``np.random.default_rng(0).standard_normal(n)``, the estimate is
    ``|apply(v)|`` and the next v is ``apply(v)`` over it, until two successive
    estimates agree to ``tol`` relative, the estimate is zero, or ``iters``
    products were made."""
    v = np.random.default_rng(0).standard_normal(n)
    v = v / np.linalg.norm(v)
    previous = 0.0
    for products in range(1, iters + 1):
        w = apply(v)
        estimate = float(np.linalg.norm(w))
        if estimate == 0.0 or abs(estimate - previous) <= tol * estimate:
            break
        v, previous = w / estimate, estimate
    return estimate, products
