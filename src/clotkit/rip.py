"""Recovery certificates from restricted-isometry constants, plus exact
small-instance RIP evaluation and robust null-space property spot checks.

The certificate chain turns a restricted isometry constant ``delta`` of
order ``ceil(t*k)`` into null-space constants ``(rho, tau)`` and then into
the coefficients of the recovery error bound

    ||x_hat - x||_1 <= c_sigma * sigma_k(x) + c_eps * eps

for the combined l1/l2 and sparse-group-lasso programs, provided the mixing
parameter stays below ``mu_max``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "Certificate",
    "certificate",
    "error_bounds",
    "delta_bound_from_mu",
    "RipEstimate",
    "exact_rip",
    "RnspReport",
    "rnsp_check",
]

_SUBSET_GUARD = 10_000_000
_CHUNK = 200_000  # supports per enumeration block
_BATCH = 64  # supports per eigvalsh call on the best-first route
_SKIP_MARGIN = 1e-9  # relative; keeps every support whose float deviation could tie the best
_RNSP_SLACK = 1e-9  # relative tolerance of the null-space inequality


@dataclass(frozen=True)
class Certificate:
    """Full constant chain for one ``(t, k, delta, g, mu)`` configuration.

    ``tau`` already carries the ``sqrt(k)`` factor; the null-space
    inequality divides both ``rho`` and ``tau`` by ``sqrt(k)`` when applied.
    ``c_sigma`` and ``c_eps`` are the coefficients of the l1 error bound.
    """

    t: float
    k: int
    delta: float
    g: int
    mu: float
    nu: float
    a: float
    b: float
    c: float
    rho: float
    tau: float
    gamma: float
    mu_max: float
    c_sigma: float
    c_eps: float
    valid: bool
    reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _chain_inputs(t, g, mu):
    """Validated ``(t, g, mu)`` and the chain's ``nu``, shared by the
    certificate and the mixing-parameter bound."""
    t, mu = float(t), float(mu)
    if not 4.0 / 3.0 <= t < math.inf:
        raise ValueError(f"t must be finite and at least 4/3, got {t}")
    if not (float(g).is_integer() and g >= 1):
        raise ValueError(f"g must be at least 1 and an integer, got {g}")
    g = int(g)
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"mu must lie in [0, 1), got {mu}")
    return t, g, mu, math.sqrt(t * (t - 1.0)) - (t - 1.0)


def certificate(t: float, k: int, delta: float, g: int = 1, mu: float = 0.0) -> Certificate:
    """Compute the recovery-certificate constants.

    Never raises for in-range inputs: configurations that fail the
    sufficient conditions come back with ``valid=False`` and a reason.
    """
    t, g, mu, nu = _chain_inputs(t, g, mu)
    delta = float(delta)
    if not (float(k).is_integer() and k >= 1):
        raise ValueError(f"k={k} below 1 or not an integer")
    k = int(k)
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")

    a_sq = nu * (1.0 - nu) - delta * (0.5 - nu + nu * nu)
    b = nu * (1.0 - nu) * math.sqrt(1.0 + delta)
    c = math.sqrt(delta * nu * nu / (2.0 * (t - 1.0)))
    delta_limit = math.sqrt((t - 1.0) / t)

    if a_sq > 0.0:
        a = math.sqrt(a_sq)
        rho = c / a
        tau = b * math.sqrt(k) / a_sq
    else:
        a, rho, tau = 0.0, math.inf, math.inf

    gamma = mu * math.sqrt(g) / (1.0 - mu)
    mu_max = (1.0 - rho) / (math.sqrt(g) * (1.0 + rho)) if rho < 1.0 else 0.0
    det = (1.0 - gamma) - (1.0 + gamma) * rho if rho < math.inf else -math.inf

    valid, reason = True, ""
    if delta >= delta_limit:
        valid, reason = False, f"delta {delta:.6g} is not below sqrt((t-1)/t) = {delta_limit:.6g}"
    elif not rho < 1.0:
        valid, reason = False, f"null-space constant rho = {rho:.6g} is not below 1"
    elif not mu < mu_max:
        valid, reason = False, f"mu {mu:.6g} is not below mu_max = {mu_max:.6g}"
    elif not det > 0.0:
        # rho must stay below (1-gamma)/(1+gamma) for the bound coefficients
        # to be positive; this is stricter than mu < mu_max because gamma
        # carries the 1/(1-mu) factor.
        valid, reason = False, (f"bound denominator (1-gamma)-(1+gamma)*rho = {det:.6g} "
                                f"is not positive")

    if valid:
        c_sigma = 2.0 * (1.0 + rho) / det
        c_eps = 4.0 * tau / det
    else:
        c_sigma = c_eps = math.nan

    return Certificate(t, k, delta, g, mu, nu, a, b, c, rho, tau, gamma, mu_max,
                       c_sigma, c_eps, valid, reason)


def error_bounds(cert: Certificate, sigma_k: float, epsilon: float, p: float = 2.0):
    """Recovery error bounds ``(l1, lp)`` implied by a valid certificate.

    The lp bound holds for ``p`` in [1, 2] and scales by ``k^{-(1 - 1/p)}``.
    """
    if not cert.valid:
        raise ValueError(f"certificate is not valid: {cert.reason}")
    if not (0.0 <= sigma_k < math.inf and 0.0 <= epsilon < math.inf):
        raise ValueError("sigma_k and epsilon must be finite and nonnegative")
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")
    bound_l1 = cert.c_sigma * sigma_k + cert.c_eps * epsilon
    scale = cert.k ** (-(1.0 - 1.0 / p))
    bound_lp = scale * ((1.0 + cert.rho) * cert.c_sigma * sigma_k
                        + ((1.0 + cert.rho) * cert.c_eps + 2.0 * cert.tau) * epsilon)
    return bound_l1, bound_lp


def delta_bound_from_mu(t: float, mu: float, g: int = 1) -> float:
    """Largest admissible RIP constant for a given mixing parameter.

    Any ``delta`` strictly below the returned value yields a valid
    certificate at the same ``(t, g, mu)``.  At ``mu = 0`` the bound
    degenerates to the plain l1 threshold ``sqrt((t-1)/t)``.
    """
    t, g, mu, nu = _chain_inputs(t, g, mu)
    theta1 = nu * (1.0 - nu)
    theta2 = 0.5 - theta1
    theta3 = nu * nu / (2.0 * (t - 1.0))
    gamma = mu * math.sqrt(g) / (1.0 - mu)
    rho_bar = (1.0 - gamma) / (1.0 + gamma)
    if rho_bar <= 0.0:
        return 0.0
    return rho_bar * rho_bar * theta1 / (theta3 + rho_bar * rho_bar * theta2)


# ---------------------------------------------------------------------------
# exact RIP constants by exhaustive support enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RipEstimate:
    k: int
    delta_k: float
    argmax_support: tuple
    supports: int = field(compare=False)  # supports visited before the enumeration stopped


def _lex_runs(n: int, k: int, spare: int = 0):
    """Every size-``k`` subset of ``range(n - spare)`` in lexicographic order,
    as runs of at most ``max(1, _CHUNK // n)`` size-``(k - 1)`` prefixes, each
    run's supports listed by ``_extend(run, n - spare)``.  The prefixes are the
    subsets one size smaller, built the same way with one more column spare so
    that each has an extension."""
    if k == 1:
        yield np.empty((1, 0), dtype=np.intp)
        return
    step = max(1, _CHUNK // n)
    for run in _lex_runs(n, k - 1, spare + 1):
        prefixes = _extend(run, n - spare - 1)
        yield from (prefixes[start:start + step] for start in range(0, len(prefixes), step))


def _last_columns(prefixes, stop: int):
    """How many supports each prefix heads, and their last columns: those after it, below ``stop``."""
    counts = stop - 1 - (last := prefixes.max(axis=1, initial=-1))
    return counts, np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - last - 1, counts)


def _extend(prefixes, stop: int):
    """Each prefix followed by each of its ``_last_columns``, one support per row, in order."""
    counts, cols = _last_columns(prefixes, stop)
    return np.vstack([np.repeat(prefixes.T, counts, axis=1), cols]).T  # contiguous columns


def _deviations(subs):
    """``max(lambda_max - 1, 1 - lambda_min)`` of each stacked symmetric matrix."""
    evals = np.linalg.eigvalsh(subs)
    return np.maximum(evals[:, -1] - 1.0, 1.0 - evals[:, 0])


def _gershgorin(fold, prefixes):
    """A run's prefix ends, last columns and Gershgorin bounds ``max_i(|G_ii - 1| + sum_{j != i} |G_ij|)``."""
    n, (counts, cols) = len(fold), _last_columns(prefixes, len(fold))
    fold = fold.ravel()
    bound, last = np.zeros((2, cols.size))  # last is row c's; every sum runs in support order, from 0
    for p in prefixes.T:
        last += (entry := fold[np.repeat(p * n, counts) + cols])
        np.maximum(bound, np.repeat(sum(fold[p * n + q] for q in prefixes.T), counts) + entry, out=bound)
    return np.cumsum(counts), cols, np.maximum(bound, last + fold[cols * (n + 1)], out=bound)


def _best_first_route(gram):
    """A route giving a run's first maximal deviation and its support.  Supports go to ``eigvalsh`` (and are built)
    in batches of ``_BATCH``, by descending ``_gershgorin`` bound, while it lies within ``_SKIP_MARGIN`` (relative)
    of the best."""
    fold = np.maximum(fold := np.abs(gram - np.eye(len(gram))), fold.T)  # for either triangle eigvalsh reads; once

    def route(prefixes, best):
        ends, cols, bound = _gershgorin(fold, prefixes)
        support = lambda j: np.concatenate((prefixes[np.searchsorted(ends, j, "right")], cols[j, None]), axis=1)
        dev, floor = np.full(bound.size, -np.inf), lambda: best - _SKIP_MARGIN * max(1.0, abs(best))
        batch, rest = np.argpartition(-bound, min(_BATCH, bound.size) - 1)[:_BATCH], None
        while (batch := batch[bound[batch] >= floor()]).size:
            dev[batch] = _deviations(gram[(sent := support(batch))[:, :, None], sent[:, None, :]])
            best = max(best, dev[batch].max())
            if rest is None:  # sort only the bounds that can still reach the best
                rest = np.flatnonzero((bound >= floor()) & np.isneginf(dev))
                rest = rest[np.argsort(-bound[rest])]
            batch, rest = rest[:_BATCH], rest[_BATCH:]
        return dev.max(), support([np.argmax(dev)])[0]

    return route


def _pattern_route(gram, k: int, count: int):
    """A route giving a run's first maximal deviation and its support by overlap
    pattern, with the ceiling no support can exceed; or ``None`` when it won't pay.

    With ``d`` exactly distinct Gram values, a support's sub-Gram matrix is
    fixed by the value indices of the triangle ``eigvalsh`` reads, one base-``d``
    code: its prefix's code shifted ``k`` digits plus the last row, read for all
    extensions at once from the prefix's rows of the value-index matrix scaled
    by their digits.  Each candidate code, diagonal digits from the Gram
    diagonal and the rest from below it, goes through ``eigvalsh`` once, up
    front, so every deviation equals the best-first route's.  The route is taken
    only when the code table is no larger than the support count and has at most
    ``_CHUNK`` candidates, and never at ``k = 1``: there sorting all ``n**2``
    Gram values would cost more than the whole enumeration; nor are they sorted
    when one row alone has more distinct values than the table allows.
    """
    if k == 1 or (np.count_nonzero(np.diff(np.sort(gram[0]))) + 1) ** (k * (k + 1) // 2) > count:
        return None
    values, idx = np.unique(gram, return_inverse=True)
    d, n, (rows, cols) = values.size, len(gram), np.tril_indices(k)
    size = d ** rows.size
    if size > count:
        return None
    idx = idx.reshape(gram.shape).astype(np.min_scalar_type(size))  # every code is below size
    present = lambda v: np.flatnonzero(np.bincount(v))  # sorted; np.unique would import numpy.ma
    diag, below = present(idx.diagonal()), present(idx[np.tril_indices(n, -1)])
    if diag.size ** k * below.size ** (rows.size - k) > _CHUNK:  # one block's worth of matrices
        return None
    digits = np.meshgrid(*(below if r > c else diag for r, c in zip(rows, cols)), indexing="ij")
    candidates = np.stack(digits, axis=-1).reshape(-1, rows.size)
    subs = np.zeros((len(candidates), k, k))
    subs[:, rows, cols] = values[candidates]
    weights = (d ** np.arange(rows.size - 1, -1, -1)).astype(idx.dtype)  # of the code's digits
    table = np.full(size, -np.inf)
    table[candidates @ weights] = _deviations(subs)
    # row p of idx.T holds the value index of G[c, p] for every column c
    scaled = [np.ascontiguousarray(idx.T) * w for w in weights[-k:-1]]
    scaled[-1] += idx.diagonal()

    def route(prefixes, _best):
        head = idx[prefixes[:, rows[:-k]], prefixes[:, cols[:-k]]] @ weights[:-k]
        codes = sum((w[p] for w, p in zip(scaled, prefixes.T)), head[:, None])
        at = np.flatnonzero(np.arange(n) > prefixes[:, -1:])  # the run's supports in order
        j = at[np.argmax(table[codes.ravel()[at]])]
        return table[codes.flat[j]], np.append(prefixes[j // n], j % n)

    return route, table.max()


def _matrix_and_order(A, k):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"the matrix must be 2-D, got shape {A.shape}")
    if not (float(k).is_integer() and 1 <= k <= A.shape[1]):
        raise ValueError(f"k={k} outside 1..{A.shape[1]} or not an integer")
    if not np.isfinite(A).all():
        raise ValueError("the matrix has non-finite entries")
    return A, int(k)


def exact_rip(A, k: int) -> RipEstimate:
    """Exact ``delta_k`` of a matrix by enumerating every size-``k`` support.

    Supports of size below ``k`` are dominated by eigenvalue interlacing, so
    only exact size-``k`` subsets are visited, in lexicographic order, each
    size-``(k - 1)`` prefix extended by every later column; the reported support
    is the first one attaining the maximum.  A Gram matrix with few distinct
    values (a binary construction such as DeVore's) is evaluated once per
    candidate overlap pattern, stopping at a support that reaches the largest;
    any other best-first, sending to ``eigvalsh`` only the supports whose
    Gershgorin bound can reach the best so far.  ``supports`` counts those
    visited.  Refuses a non-finite matrix and over ``_SUBSET_GUARD`` supports.
    """
    A, k = _matrix_and_order(A, k)
    n, count = A.shape[1], math.comb(A.shape[1], k)
    if count > _SUBSET_GUARD:
        raise ValueError(f"C({n},{k}) = {count} supports exceeds the enumeration guard of {_SUBSET_GUARD}")
    gram = A.T @ A
    route, ceiling = _pattern_route(gram, k, count) or (_best_first_route(gram), np.inf)

    best, best_support, visited = -np.inf, None, 0
    for prefixes in _lex_runs(n, k):
        dev, support = route(prefixes, best)
        visited += int((n - 1 - prefixes.max(axis=1, initial=-1)).sum())
        if dev > best:
            best, best_support = float(dev), tuple(int(i) for i in support)
        if best >= ceiling:  # no later support can exceed it
            break
    return RipEstimate(k, max(best, 0.0), best_support, visited)


# ---------------------------------------------------------------------------
# robust null-space property spot checks
# ---------------------------------------------------------------------------


@dataclass
class RnspReport:
    k: int
    rho: float
    tau: float
    checked: int
    violations: list = field(default_factory=list)
    min_margin: float = math.inf

    @property
    def ok(self) -> bool:
        return not self.violations


def rnsp_check(A, k: int, rho: float, tau: float, trials: int = 1000, seed: int = 0) -> RnspReport:
    """Sample vectors against the l2 robust null-space inequality

        ||h_S||_2 <= (rho/sqrt(k)) * ||h_{S^c}||_1 + (tau/sqrt(k)) * ||A h||_2.

    Each vector is checked on its top-``k``-magnitude support (ties to the lower
    index): no support of size up to ``k`` has a larger ``||h_S||_2`` or a smaller
    ``||h_{S^c}||_1``, so none violates where it does not.  Trial ``t`` is dense
    when ``t % 3 == 0``, ``k`` spikes of scale 10 over 0.05 noise when it is 1,
    and, when it is 2 and ``A`` has a null space (rank by numpy's ``matrix_rank``
    tolerance), projected onto it.  Zero vectors are skipped; ``checked`` counts
    the rest.  Violations are reported, the first 20 in full; a non-finite matrix
    or ``k`` outside ``1..n`` raises.
    """
    A, k = _matrix_and_order(A, k)
    m, n = A.shape
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if not (float(trials).is_integer() and trials >= 1):
        raise ValueError(f"trials={trials} below 1 or not an integer")
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((int(trials), n))
    spiked = h[1::3]
    spiked *= 0.05
    cols = np.argsort(rng.random(spiked.shape), axis=1)[:, :k]  # k distinct columns per vector
    spiked[np.arange(len(cols))[:, None], cols] += 10.0 * rng.standard_normal(cols.shape)
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > s.max(initial=0.0) * max(m, n) * np.finfo(float).eps))
    if rank < n:  # remove the row-space part
        h[2::3] -= h[2::3] @ vt[:rank].T @ vt[:rank]
    trial = np.flatnonzero(h.any(axis=1))
    h = h[trial]
    order = np.argsort(-np.abs(h), axis=1, kind="stable")[:, :k]
    lhs = np.linalg.norm(np.take_along_axis(h, order, axis=1), axis=1)
    rest = np.abs(h)
    np.put_along_axis(rest, order, 0.0, axis=1)  # |h| off the support
    rhs = (rho * rest.sum(axis=1) + tau * np.linalg.norm(h @ A.T, axis=1)) / math.sqrt(k)
    bad = np.flatnonzero(lhs > rhs + _RNSP_SLACK * np.maximum(1.0, rhs))
    violations = [{"trial": int(trial[j]), "support": order[j].tolist(), "lhs": float(lhs[j]),
                   "rhs": float(rhs[j])} for j in bad[:20]]
    violations += [{"trial": int(t)} for t in trial[bad[20:]]]
    return RnspReport(k, rho, tau, len(trial), violations, float(np.min(rhs - lhs, initial=math.inf)))
