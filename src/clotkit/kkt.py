"""Subgradient-inclusion optimality checks, written independently of the solvers.

For the penalized least-squares programs the first-order condition is that
the negative gradient of the data-fit term belongs to the (scaled)
subdifferential of the penalty.  ``subdiff_distance`` measures how badly
that inclusion fails; a converged solve should bring it near zero.
"""

from __future__ import annotations

import numpy as np

from .regularizers import RegularizerSpec, _group_norms, _per_coordinate

__all__ = ["subdiff_distance", "kkt_residual", "prox_optimality_residual"]


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


def kkt_residual(A, y, x, spec: RegularizerSpec, lam: float, side: str = "penalty") -> float:
    """Stationarity gap of ``x`` for the Lagrangian program.

    ``side='penalty'`` checks ``||y - Az||^2 + lam*R(z)``;
    ``side='loss'`` checks ``lam*||y - Az||^2 + R(z)``.
    """
    if side not in ("penalty", "loss"):
        raise ValueError(f"side must be 'penalty' or 'loss', got {side!r}")
    loss_w, pen_w = (float(lam), 1.0) if side == "loss" else (1.0, float(lam))
    grad = 2.0 * loss_w * (A.T @ (A @ x - y))
    return subdiff_distance(spec, x, -grad, pen_w)


def prox_optimality_residual(spec: RegularizerSpec, z, v, step: float) -> float:
    """Stationarity gap of ``z`` for ``step*R(.) + 0.5*||. - v||^2``."""
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    return subdiff_distance(spec, z, v - z, float(step))
