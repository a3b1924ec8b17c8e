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
from functools import partial
from typing import Optional

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
_CHUNK = 200_000  # supports per eigenvalue batch
_RNSP_SLACK = 1e-9  # relative tolerance of the null-space inequality
_RNSP_RANDOM_SUPPORTS = 3  # random supports checked per trial vector, beside the top-k one


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
    t, g, mu = float(t), int(g), float(mu)
    if t < 4.0 / 3.0:
        raise ValueError(f"t must be at least 4/3, got {t}")
    if g < 1:
        raise ValueError(f"g must be at least 1, got {g}")
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"mu must lie in [0, 1), got {mu}")
    return t, g, mu, math.sqrt(t * (t - 1.0)) - (t - 1.0)


def certificate(t: float, k: int, delta: float, g: int = 1, mu: float = 0.0) -> Certificate:
    """Compute the recovery-certificate constants.

    Never raises for in-range inputs: configurations that fail the
    sufficient conditions come back with ``valid=False`` and a reason.
    """
    t, g, mu, nu = _chain_inputs(t, g, mu)
    k = int(k)
    delta = float(delta)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
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
    if sigma_k < 0 or epsilon < 0:
        raise ValueError("sigma_k and epsilon must be nonnegative")
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
    if mu == 0.0:
        return math.sqrt((t - 1.0) / t)
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


def _lex_supports(n: int, k: int):
    """Every size-``k`` subset of ``range(n)`` in lexicographic order, as
    ``(rows, k)`` index blocks of at most ``_CHUNK`` rows.

    Lexicographic rank ``r`` is unranked through the combinatorial number
    system: ``C(n, k) - 1 - r`` is the colex rank of the support mirrored by
    ``i -> n - 1 - i``, whose elements fall out largest first from one
    ``searchsorted`` per position on a table of ``C(c, j)``.
    """
    count = math.comb(n, k)
    # entries at or above ``count`` never fit under a rank, so they are capped
    binom = np.array([[min(math.comb(c, j), count) for c in range(n)] for j in range(k + 1)],
                     dtype=np.int64)
    for start in range(0, count, _CHUNK):
        rest = count - 1 - np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        supports = np.empty((rest.size, k), dtype=np.intp, order="F")  # contiguous columns
        for j in range(k, 1, -1):
            c = np.searchsorted(binom[j], rest, side="right") - 1
            supports[:, k - j] = n - 1 - c
            rest -= binom[j, c]
        supports[:, k - 1] = n - 1 - rest  # C(c, 1) = c
        yield supports


def _deviations(gram, supports):
    """``max(lambda_max - 1, 1 - lambda_min)`` of each support's sub-Gram matrix."""
    evals = np.linalg.eigvalsh(gram[supports[:, :, None], supports[:, None, :]])
    return np.maximum(evals[:, -1] - 1.0, 1.0 - evals[:, 0])


def _pattern_deviations(gram, k: int, count: int):
    """A function giving a block of supports' deviations by overlap pattern,
    or ``None`` when the Gram matrix has too many distinct values to pay.

    With ``d`` exactly distinct Gram values, a support's sub-Gram matrix is
    fixed by the value indices of the triangle ``eigvalsh`` reads, one base-``d``
    code.  Each code that occurs is sent through ``eigvalsh`` once, on one
    support carrying it, so every deviation equals the batched route's.  The
    route is taken only when the code table is no larger than the support count,
    and never at ``k = 1``: there each sub-Gram matrix is one diagonal entry, and
    sorting all ``n**2`` Gram values would cost more than the whole enumeration.
    """
    if k == 1:
        return None
    values, idx = np.unique(gram, return_inverse=True)
    idx = idx.reshape(gram.shape)
    rows, cols = np.tril_indices(k)
    size = values.size ** rows.size
    if size > count:
        return None
    table = np.empty(size)
    known = np.zeros(size, dtype=bool)
    holder = np.empty(size, dtype=np.intp)

    def deviations(supports):
        codes = np.zeros(len(supports), dtype=np.int64)
        for a, b in zip(rows, cols):
            codes *= values.size
            codes += idx[supports[:, a], supports[:, b]]
        fresh = np.flatnonzero(~known[codes])
        if fresh.size:
            holder[codes[fresh]] = fresh  # one support per new code keeps its slot
            fresh = fresh[holder[codes[fresh]] == fresh]
            table[codes[fresh]] = _deviations(gram, supports[fresh])
            known[codes[fresh]] = True
        return table[codes]

    return deviations


def exact_rip(A, k: int) -> RipEstimate:
    """Exact ``delta_k`` of a matrix by enumerating every size-``k`` support.

    Supports of size below ``k`` are dominated by eigenvalue interlacing, so
    only exact size-``k`` subsets are visited, in lexicographic order; the
    reported support is the first one attaining the maximum.  A Gram matrix
    with few distinct values (a binary construction such as DeVore's) is
    evaluated once per overlap pattern instead of once per support.  Refuses
    a non-finite matrix and combinatorially infeasible requests (more than
    ``_SUBSET_GUARD`` subsets).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    count = math.comb(n, k)
    if count > _SUBSET_GUARD:
        raise ValueError(
            f"C({n},{k}) = {count} supports exceeds the enumeration guard of {_SUBSET_GUARD}"
        )
    if not np.isfinite(A).all():
        raise ValueError("the matrix has non-finite entries")
    gram = A.T @ A
    deviations = _pattern_deviations(gram, k, count) or partial(_deviations, gram)

    best = -np.inf
    best_support = None
    for supports in _lex_supports(n, k):
        dev = deviations(supports)
        j = int(np.argmax(dev))
        if dev[j] > best:
            best = float(dev[j])
            best_support = tuple(int(i) for i in supports[j])
    return RipEstimate(k=k, delta_k=max(best, 0.0), argmax_support=best_support)


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
    """Sample vectors and supports against the l2 robust null-space inequality

        ||h_S||_2 <= (rho/sqrt(k)) * ||h_{S^c}||_1 + (tau/sqrt(k)) * ||A h||_2.

    For each trial vector the top-``k``-magnitude support (the worst case
    over supports) is always checked, plus ``_RNSP_RANDOM_SUPPORTS`` random
    supports of size up to ``k``.  Vectors are drawn dense, sparse-plus-noise,
    and projected onto the null space when one exists.  Report-only:
    violations are collected, not raised.  ``k`` must lie in ``1..n``.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    rng = np.random.default_rng(seed)
    report = RnspReport(k=k, rho=rho, tau=tau, checked=0)
    sq = math.sqrt(k)
    pinv_factor = np.linalg.pinv(A) if m < n else None

    for trial in range(trials):
        style = trial % 3
        h = rng.standard_normal(n)
        if style == 1:
            sparse = np.zeros(n)
            idx = rng.choice(n, size=min(k, n), replace=False)
            sparse[idx] = rng.standard_normal(idx.size) * 10.0
            h = sparse + 0.05 * h
        elif style == 2 and pinv_factor is not None:
            h = h - pinv_factor @ (A @ h)
            if not np.any(h):
                continue

        ah = float(np.linalg.norm(A @ h))
        order = np.argsort(-np.abs(h), kind="stable")
        supports = [order[:k]]
        for _ in range(_RNSP_RANDOM_SUPPORTS):
            size = int(rng.integers(1, k + 1))
            supports.append(rng.choice(n, size=size, replace=False))

        for S in supports:
            mask = np.zeros(n, dtype=bool)
            mask[S] = True
            lhs = float(np.linalg.norm(h[mask]))
            rhs = rho / sq * float(np.sum(np.abs(h[~mask]))) + tau / sq * ah
            report.checked += 1
            margin = rhs - lhs
            report.min_margin = min(report.min_margin, margin)
            if lhs > rhs + _RNSP_SLACK * max(1.0, rhs):
                if len(report.violations) < 20:
                    report.violations.append(
                        {"trial": trial, "support": [int(i) for i in S],
                         "lhs": lhs, "rhs": rhs}
                    )
                else:
                    report.violations.append({"trial": trial})
    return report
