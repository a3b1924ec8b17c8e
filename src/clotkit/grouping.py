"""Verification of the grouping effect on solved instances.

For a stationary point of ``lam*||y - Az||^2 + R(z)`` with a CLOT or
sparse-group-lasso penalty, any two same-group coefficients with nonzero
product obey

    |x_i - x_j| / (2*lam*||y||_2) <= sqrt(2*(1 - rho_ij)) * ||x_group||_2 / mu,

where ``rho_ij`` is the inner product of the (unit-norm) columns after
flipping one sign if needed to make the product positive.  The check
requires ``y`` centered and unit column norms; :func:`preprocess` puts raw
data into that form.  The sign flip is applied as a reporting convention on
the already-solved instance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kkt import kkt_residual
from .regularizers import Partition, RegularizerSpec, group_norms

__all__ = [
    "Preprocessed",
    "preprocess",
    "GroupingPair",
    "GroupingReport",
    "grouping_check",
    "grouping_bound",
]

_KKT_TOL = 1e-7  # stationarity pre-check on the loss-side subgradient distance


@dataclass
class Preprocessed:
    A: np.ndarray
    y: np.ndarray
    column_norms: np.ndarray  # scale applied per column; x_raw = x_std / column_norms


def preprocess(A, y) -> Preprocessed:
    """Center ``y`` and scale the columns of ``A`` to unit Euclidean norm.

    Columns are not de-meaned here; a constant column (which would vanish
    under any de-meaning convention) is rejected.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
        raise ValueError("A must be m-by-n and y length m")
    spans = A.max(axis=0) - A.min(axis=0)
    bad = np.nonzero(spans == 0)[0]
    if bad.size:
        raise ValueError(f"column {int(bad[0])} is constant")
    norms = np.linalg.norm(A, axis=0)
    return Preprocessed(A / norms, y - y.mean(), norms)


@dataclass
class GroupingPair:
    i: int
    j: int
    same_group: bool
    rho_ij: float
    d_ij: float
    bound_ij: float
    holds: bool
    sign_flipped_j: bool


@dataclass
class GroupingReport:
    lam: float
    mu: float
    kkt_ok: bool
    kkt_residual: float
    slack: float
    pairs: list = field(default_factory=list)

    def violations(self):
        return [p for p in self.pairs if p.same_group and not p.holds]


def grouping_bound(rho: float, group_norm: float, mu: float) -> float:
    """Right-hand side of the grouping inequality; decreasing in both
    ``rho`` and ``mu``."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return math.sqrt(max(2.0 * (1.0 - rho), 0.0)) * group_norm / mu


def grouping_check(A_std, y_centered, x_hat, lam: float, mu: float,
                   partition: Optional[Partition] = None, slack: float = 1e-9,
                   include_cross_group: bool = False) -> GroupingReport:
    """Evaluate the grouping inequality for every same-group pair of nonzero
    coefficients of a solved instance.

    ``lam`` is the multiplier on the loss term (the solve being certified is
    ``lam*||y - Az||^2 + R(z)``; a penalty-side solve at multiplier ``t``
    corresponds to ``lam = 1/t``).  If ``x_hat`` fails the stationarity
    pre-check at ``_KKT_TOL`` the pairs are skipped and the report says so.
    Cross-group pairs can be included for reference; the inequality is not
    required to hold for them, and their bound uses the full vector norm.
    """
    A = np.asarray(A_std, dtype=float)
    y = np.asarray(y_centered, dtype=float)
    x = np.asarray(x_hat, dtype=float)
    if mu <= 0:
        raise ValueError("mu must be positive for the grouping bound")
    norms = np.linalg.norm(A, axis=0)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValueError("columns of A must have unit norm; run preprocess first")
    if abs(float(np.sum(y))) > 1e-8 * max(1.0, float(np.linalg.norm(y))):
        raise ValueError("y must be centered; run preprocess first")

    part = partition if partition is not None else Partition.single(A.shape[1])
    spec = RegularizerSpec.sparse_group_lasso(mu, part)

    kkt = kkt_residual(A, y, x, spec, lam, side="loss")
    report = GroupingReport(lam=float(lam), mu=float(mu), kkt_ok=kkt <= _KKT_TOL,
                            kkt_residual=float(kkt), slack=slack)
    if not report.kkt_ok:
        return report

    ynorm = float(np.linalg.norm(y))
    group_of = part.labels
    norms = group_norms(x, part)
    full_norm = float(np.linalg.norm(x))

    for i, j in itertools.combinations(np.flatnonzero(x).tolist(), 2):
        same = group_of[i] == group_of[j]
        if not same and not include_cross_group:
            continue
        flipped = x[i] * x[j] < 0
        xj = -x[j] if flipped else x[j]
        aj = -A[:, j] if flipped else A[:, j]
        rho = float(A[:, i] @ aj)
        d = abs(x[i] - xj) / (2.0 * lam * ynorm)
        ref_norm = np.take(norms, group_of[i]) if same else full_norm
        bound = grouping_bound(rho, ref_norm, mu)
        report.pairs.append(GroupingPair(
            i=i, j=j, same_group=bool(same), rho_ij=rho, d_ij=float(d),
            bound_ij=float(bound), holds=bool(d <= bound + slack),
            sign_flipped_j=bool(flipped),
        ))
    return report
