"""Penalty functions for sparse regression: values, proxes, certificates, sparsity index.

The six penalties are one family, ``a*||z||_1 + b*||z||_2^2 + c*sum_g ||z_g||_2``,
with weights ``(a, b, c)`` and groups ``g``:

    ``L1``    lasso               (1, 0, 0)
    ``L2SQ``  ridge               (0, 1, 0)
    ``EN``    elastic net         (mu, 1 - mu, 0)
    ``CLOT``  one group           (1 - mu, 0, mu)
    ``GL``    group lasso         (0, 0, 1)
    ``SGL``   sparse group lasso  (1 - mu, 0, mu)

GL and SGL take their groups from a partition; CLOT is SGL with one group
covering every coordinate.  With ``c = 0`` the coordinates act as singleton
groups.  L1, GL, SGL and CLOT are norms (absolutely homogeneous); ridge and
EN are not.

Each family function (:func:`penalty_value`, :func:`prox`,
:func:`penalty_gauge_at_zero` and :func:`subdiff_distance`, the certificate
every solve is checked by) is written once against the weights.  The prox of
``step*R`` is exact: soft-threshold at ``step*a``, shrink each group's
Euclidean norm by ``step*c``, then divide by ``q = 1 + 2*step*b`` (the same
as both shrinks on ``v/q`` with thresholds divided by ``q``).

Mind the two ``mu`` conventions: EN puts ``mu`` on the l1 term, while CLOT
and SGL put ``1 - mu`` on the l1 term.  Both conventions are kept exactly as
commonly written; mixing them up is the classic bug when comparing EN
against CLOT at "the same mu".

Group-lasso terms are not divided or weighted by group size here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "PenaltyKind",
    "Partition",
    "RegularizerSpec",
    "penalty_value",
    "prox",
    "penalty_gauge_at_zero",
    "subdiff_distance",
    "sparsity_index",
]


class PenaltyKind(str, Enum):
    L1 = "l1"
    L2SQ = "l2sq"
    EN = "en"
    CLOT = "clot"
    GL = "gl"
    SGL = "sgl"

    @classmethod
    def _missing_(cls, value):
        """Accept the common names ``lasso`` and ``ridge``."""
        return {"lasso": cls.L1, "ridge": cls.L2SQ}.get(value)


_GROUPED = (PenaltyKind.GL, PenaltyKind.SGL)
_MU_KINDS = (PenaltyKind.EN, PenaltyKind.CLOT, PenaltyKind.SGL)


@dataclass(frozen=True)
class Partition:
    """Disjoint grouping of the coordinates ``0..n-1``.

    ``groups`` is an ordered tuple of index tuples; the groups must be
    nonempty, pairwise disjoint, and cover every coordinate exactly once.
    """

    groups: tuple
    n: int

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if self.n < 1:
            raise ValueError("partition dimension must be positive")
        if not groups:
            raise ValueError("partition needs at least one group")
        seen = set()
        for g in groups:
            if not g:
                raise ValueError("empty group in partition")
            for i in g:
                if not 0 <= i < self.n:
                    raise ValueError(f"index {i} outside 0..{self.n - 1}")
                if i in seen:
                    raise ValueError(f"index {i} appears in two groups")
                seen.add(i)
        if len(seen) != self.n:
            missing = sorted(set(range(self.n)) - seen)
            raise ValueError(f"partition does not cover indices {missing[:5]}")

    @property
    def g(self) -> int:
        return len(self.groups)

    @cached_property
    def labels(self) -> np.ndarray:
        """Group number of each coordinate."""
        labels = np.empty(self.n, dtype=np.intp)
        for s, g in enumerate(self.groups):
            labels[list(g)] = s
        return labels

    @classmethod
    def contiguous(cls, sizes: Sequence[int]) -> "Partition":
        """Partition into consecutive blocks of the given sizes."""
        bounds = np.cumsum([0, *sizes])
        groups = tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(len(sizes)))
        return cls(groups, int(bounds[-1]))

    @classmethod
    def single(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),), n)


@dataclass(frozen=True)
class RegularizerSpec:
    """Which penalty to use, with its mixing parameter and group structure.

    ``mu`` is required to lie in [0, 1] for EN, CLOT, and SGL.  GL ignores
    ``mu`` (it behaves as SGL with mu = 1).  GL and SGL require a partition,
    and no other kind takes one: CLOT is one group of all coordinates.

    Construction resolves the spec to the family's ``weights`` ``(a, b, c)``;
    the ``partition`` gives the groups of the group term (None: one group of
    all coordinates).  Nothing past this class reads ``kind``.
    """

    kind: PenaltyKind
    mu: float = 0.0
    partition: Optional[Partition] = None
    weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = PenaltyKind(self.kind.lower() if isinstance(self.kind, str) else self.kind)
        object.__setattr__(self, "kind", kind)
        mu = float(self.mu)
        if kind in _MU_KINDS and not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu={mu} outside [0, 1] for {kind.value}")
        if kind is PenaltyKind.GL:
            mu = 1.0
        if kind in (PenaltyKind.L1, PenaltyKind.L2SQ):
            mu = 0.0
        object.__setattr__(self, "mu", mu)
        if kind in _GROUPED and self.partition is None:
            raise ValueError(f"{kind.value} requires a partition")
        if kind not in _GROUPED and self.partition is not None:
            raise ValueError(f"{kind.value} takes no partition; only gl and sgl do, "
                             "and sgl is CLOT's penalty over groups")
        weights = {
            PenaltyKind.L1: (1.0, 0.0, 0.0),
            PenaltyKind.L2SQ: (0.0, 1.0, 0.0),
            PenaltyKind.EN: (mu, 1.0 - mu, 0.0),
        }.get(kind, (1.0 - mu, 0.0, mu))
        object.__setattr__(self, "weights", weights)

    # -- convenience constructors -------------------------------------------
    @classmethod
    def lasso(cls):
        return cls(PenaltyKind.L1)

    @classmethod
    def ridge(cls):
        return cls(PenaltyKind.L2SQ)

    @classmethod
    def elastic_net(cls, mu: float):
        return cls(PenaltyKind.EN, mu)

    @classmethod
    def clot(cls, mu: float):
        return cls(PenaltyKind.CLOT, mu)

    @classmethod
    def group_lasso(cls, partition: Partition):
        return cls(PenaltyKind.GL, 1.0, partition)

    @classmethod
    def sparse_group_lasso(cls, mu: float, partition: Partition):
        return cls(PenaltyKind.SGL, mu, partition)

    def check_dimension(self, n: int) -> None:
        """Raise ``ValueError`` unless the partition, if any, covers ``n`` coordinates."""
        if self.partition is not None and self.partition.n != n:
            raise ValueError(f"vector has length {n} but the partition covers {self.partition.n}")

    def label(self) -> str:
        if self.kind in _MU_KINDS:
            return f"{self.kind.value}(mu={self.mu:g})"
        return self.kind.value


def _soft(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise soft threshold at level ``t >= 0``."""
    return v - np.minimum(np.maximum(v, -t), t)


def _group_norms(groups: Optional[Partition], v: np.ndarray):
    """Euclidean norm of each group of ``v``: a float for one group (``groups``
    None or a single block), else an array from one ``bincount`` over the labels."""
    if groups is None or groups.g == 1:
        return math.sqrt(v @ v)
    return np.sqrt(np.bincount(groups.labels, v * v, groups.g))


def _per_coordinate(groups: Optional[Partition], per_group):
    """Spread per-group values over the coordinates (one group's value broadcasts)."""
    return per_group if groups is None or groups.g == 1 else per_group[groups.labels]


def penalty_value(spec: RegularizerSpec, z) -> float:
    """Value of the penalty at ``z``; nonnegative, zero only at the origin."""
    z = np.asarray(z, dtype=float)
    a, b, c = spec.weights
    total = 0.0
    if a:
        total += a * float(np.abs(z).sum())
    if b:
        total += b * float(z @ z)
    if c:
        total += c * float(np.add.reduce(_group_norms(spec.partition, z)))
    return total


def prox(spec: RegularizerSpec, v, step: float) -> np.ndarray:
    """Exact minimizer of ``step * R(z) + 0.5 * ||z - v||^2``: soft threshold
    at ``step*a``, group shrink at ``step*c``, division by ``1 + 2*step*b``."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    a, b, c = spec.weights
    u = np.asarray(v, dtype=float)
    if a:
        u = _soft(u, step * a)
    t = step * c
    if t:  # zero also when step*c underflows
        u = u * _per_coordinate(spec.partition,
                                1.0 - t / np.maximum(_group_norms(spec.partition, u), t))
    if b:
        u = u / (1.0 + 2.0 * step * b)
    return u


def penalty_gauge_at_zero(spec: RegularizerSpec, v) -> float:
    """Minkowski gauge of ``v`` with respect to the subdifferential of the
    penalty at the origin, ``{u + w : |u|_inf <= a, ||w_g||_2 <= c}``.

    The origin solves ``||y - Az||^2 + lam*R(z)`` exactly when
    ``lam >= 2 * gauge(A^T y)``.  Penalties with neither an l1 nor a group
    term (ridge, and EN with mu = 0) have gauge infinity for nonzero ``v``.
    """
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return 0.0
    a, _, c = spec.weights
    if not c:
        return float(np.max(np.abs(v))) / a if a else np.inf
    if not a:
        return float(np.max(_group_norms(spec.partition, v))) / c

    # Both terms: the smallest s with every group of soft(v/s, a) inside the
    # c-ball, by bisection in log scale; v/hi lies in the a-box.
    def inside(s):
        return np.max(_group_norms(spec.partition, _soft(v / s, a))) <= c

    hi = float(np.max(np.abs(v))) / a
    lo = hi * 1e-20
    if inside(lo):
        return lo
    for _ in range(100):
        mid = float(np.sqrt(lo * hi))
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return hi


def subdiff_distance(spec: RegularizerSpec, x, target, weight: float = 1.0) -> float:
    """Distance from ``target`` to ``weight * (subdifferential of R at x)``.

    With the family weights ``(a, b, c)`` the smooth part ``2*weight*b*x`` is
    subtracted first.  Coordinates are measured in the max norm.  For a group
    whose block of ``x`` is entirely zero, the distance to the Minkowski-sum
    ball ``{u + w : |u|_inf <= weight*a, ||w||_2 <= weight*c}`` is measured in
    the Euclidean norm (which upper-bounds the per-coordinate gap); with
    ``c = 0`` the coordinates are singleton groups and that is the max norm.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(target, dtype=float)
    if x.shape != t.shape:
        raise ValueError("x and target must have the same shape")
    if x.size == 0:
        return 0.0
    a, b, c = spec.weights
    w = float(weight)
    if b:
        t = t - (2.0 * w * b) * x
    if c:
        norms = _group_norms(spec.partition, x)
        zero = norms == 0
        t = t - (w * c) * x / _per_coordinate(spec.partition, norms + zero)
    if a:
        thr = w * a
        gap = np.where(x != 0, np.abs(t - thr * np.sign(x)), np.maximum(np.abs(t) - thr, 0.0))
    else:
        gap = np.abs(t)
    if c and np.count_nonzero(zero):
        # the coordinates of a zero group count through the group's Euclidean gap
        zero_gap = np.max(np.where(zero, _group_norms(spec.partition, gap) - w * c, 0.0))
        return max(float(np.max(np.where(_per_coordinate(spec.partition, zero), 0.0, gap))),
                   float(zero_gap))
    return float(gap.max())


def sparsity_index(x, k: int, norm: str = "l1") -> float:
    """Distance from ``x`` to the nearest vector with at most ``k`` nonzeros.

    Equals the chosen norm of ``x`` with its ``k`` largest-magnitude entries
    zeroed out.  Magnitude ties are broken toward lower indices (the value
    itself does not depend on the tie break).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    k = int(k)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    order = np.argsort(-np.abs(x), kind="stable")
    tail = x[order[k:]]
    if norm == "l1":
        return float(np.sum(np.abs(tail)))
    if norm == "l2":
        return float(np.linalg.norm(tail))
    raise ValueError(f"unknown norm {norm!r}; expected 'l1' or 'l2'")
