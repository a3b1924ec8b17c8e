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
    "group_norms",
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


def group_norms(v: np.ndarray, partition: Optional[Partition] = None, at=None):
    """Euclidean norm of each group of the float vector ``v``: a float for one group (no partition, or one
    block), else one per group from one ``bincount``.  ``v``'s entries sit at the coordinates ``at`` (default all).

    A (largest) norm outside ``[2**-300, 2**300]``, where a sum of squares may have under- or overflowed, is
    taken again on ``v`` scaled by the power of two of its largest entry.  That is exact, so the norms scale with
    ``v`` across the float range (Blue, ACM TOMS 1978), and in range they are the plain sums' bit for bit."""
    if one := partition is None or partition.g == 1:
        norms = math.sqrt(np.vdot(v, v))  # unlike v @ v, reports no overflow, which the rescale answers
    else:
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.bincount(partition.labels if at is None else partition.labels[at], v * v, partition.g))
    if not 2.0**-300 <= (norms if one else norms.max()) <= 2.0**300 and (e := math.frexp(abs(v).max(initial=0.0))[1]):
        return np.ldexp(group_norms(np.ldexp(v, -e), partition, at), e)
    return norms


def _per_coordinate(groups: Optional[Partition], per_group):
    """Spread per-group values over the coordinates (one group's value broadcasts)."""
    return per_group if groups is None or groups.g == 1 else per_group[groups.labels]


def penalty_value(spec: RegularizerSpec, z) -> float:
    """Value of the penalty at ``z``; nonnegative, zero only at the origin."""
    z = np.asarray(z, dtype=float)
    spec.check_dimension(z.size)
    a, b, c = spec.weights  # a zero weight skips its sum, which may overflow: 0 * inf is NaN
    return ((a and a * float(np.abs(z).sum())) + (b and b * float(z @ z))
            + (c and c * float(np.add.reduce(group_norms(z, spec.partition)))))


def prox(spec: RegularizerSpec, v, step: float) -> np.ndarray:
    """Exact minimizer of ``step * R(z) + 0.5 * ||z - v||^2``: soft threshold
    at ``step*a``, group shrink at ``step*c``, division by ``1 + 2*step*b``."""
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    a, b, c = spec.weights
    u = _soft(np.asarray(v, dtype=float), step * a)
    spec.check_dimension(u.size)
    t = step * c
    if t:  # zero also when step*c underflows
        u = u * _per_coordinate(spec.partition,
                                1.0 - t / np.maximum(group_norms(u, spec.partition), t))
    if b:
        u = u / (1.0 + 2.0 * step * b)
    return u


def penalty_gauge_at_zero(spec: RegularizerSpec, v) -> float:
    """Minkowski gauge of ``v`` with respect to the subdifferential of the
    penalty at the origin, ``{u + w : |u|_inf <= a, ||w_g||_2 <= c}``.

    The origin solves ``||y - Az||^2 + lam*R(z)`` exactly when
    ``lam >= 2 * gauge(A^T y)``.  Penalties with neither an l1 nor a group
    term (ridge, and EN with mu = 0) have gauge infinity for nonzero ``v``.
    With both terms it is the largest of the groups' gauges, each in closed form.
    """
    v = np.asarray(v, dtype=float)
    spec.check_dimension(v.size)
    if not np.any(v):
        return 0.0
    a, _, c = spec.weights
    if not c:
        return float(np.max(np.abs(v))) / a if a else np.inf
    if not a:
        return float(np.max(group_norms(v, spec.partition))) / c

    # Both terms (Ndiaye et al., NeurIPS 2016): with |v_g| sorted down to u_1 >= u_2 >= ..., a group's
    # gauge s keeps its top j entries above a*s, where sum_{i<=j} (u_i - a*s)^2 = c^2 s^2.  Entry k is
    # among them when s = u_k/a is inside already, sum_{i<k} (u_i - u_k)^2 < (c*u_k/a)^2, summed over
    # u_1 - u_i so that ties with the largest cancel; the root is taken from sums centred per group.
    labels = np.zeros(v.size, np.intp) if spec.partition is None else spec.partition.labels
    order = np.argsort(-np.abs(v))
    order = order[np.argsort(labels[order], kind="stable")]  # by group, largest first in each
    lab, u = labels[order], np.abs(v)[order]
    first = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])  # each group's largest entry
    top = u[first]
    u = u / np.where(top > 0.0, top, 1.0)[lab]  # each group's largest is 1
    rank, d = np.arange(u.size) - first[lab], 1.0 - u
    sums = [(p := np.cumsum(w) - w) - p[first][lab] for w in (d, d * d)]  # over the group's earlier entries
    j = np.bincount(lab, rank * d * d - 2.0 * d * sums[0] + sums[1] < (c / a * u) ** 2)
    on = rank < j[lab]
    s1, s2 = np.bincount(lab, on * u), np.bincount(lab, on * u * u)
    q = np.bincount(lab, (on * (u - (s1 / np.maximum(j, 1))[lab])) ** 2)
    root = np.sqrt(np.maximum(c * c * s2 - a * a * j * q, 0.0)) + (s2 == 0)  # a zero group's gauge is 0
    return float(np.max(top * s2 / (a * s1 + root)))


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
    spec.check_dimension(x.size)
    t = np.asarray(target, dtype=float)
    if x.shape != t.shape:
        raise ValueError("x and target must have the same shape")
    w = float(weight)
    if not 0 < w < math.inf:
        raise ValueError(f"weight must be positive and finite, got {weight}")
    a, b, c = spec.weights
    if b:
        t = t - (2.0 * w * b) * x
    if c:
        norms = group_norms(x, spec.partition)
        zero = norms == 0
        t = t - x * ((w * c) / _per_coordinate(spec.partition, norms + zero))  # w and the norms scale alike: ratio first
    thr = w * a
    gap = np.maximum(np.abs(t - thr * np.sign(x)) - thr * (x == 0), 0.0)  # |t| - thr, floored at 0, where x is 0
    if c and np.count_nonzero(zero):  # the coordinates of a zero group count through the group's Euclidean gap
        gap = np.where(_per_coordinate(spec.partition, zero),
                       _per_coordinate(spec.partition, group_norms(gap, spec.partition) - w * c), gap)
    return float(gap.max(initial=0.0))


def sparsity_index(x, k: int, norm: str = "l1") -> float:
    """Distance from ``x`` to the nearest vector with at most ``k`` nonzeros.

    Equals the chosen norm of ``x`` with its ``k`` largest-magnitude entries
    zeroed out.  Magnitude ties are broken toward lower indices (the value
    itself does not depend on the tie break).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not (float(k).is_integer() and 0 <= k <= n):
        raise ValueError(f"k={k} outside 0..{n} or not an integer")
    k = int(k)
    order = np.argsort(-np.abs(x), kind="stable")
    tail = x[order[k:]]
    if norm == "l1":
        return float(np.sum(np.abs(tail)))
    if norm == "l2":
        return float(group_norms(tail))
    raise ValueError(f"unknown norm {norm!r}; expected 'l1' or 'l2'")
