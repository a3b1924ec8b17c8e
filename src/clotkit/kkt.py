"""Optimality check of a Lagrangian solution from ``A`` and ``y``, apart from the solvers.

``kkt_residual`` computes the data-fit gradient directly and measures how far
its negative lies from the scaled subdifferential of the penalty, with the
family's :func:`clotkit.regularizers.subdiff_distance`; a converged solve
should bring it near zero.
"""

from __future__ import annotations

from .regularizers import RegularizerSpec, subdiff_distance
from .solvers import Lagrangian

__all__ = ["kkt_residual"]


def kkt_residual(A, y, x, spec: RegularizerSpec, lam: float, side: str = "penalty") -> float:
    """Stationarity gap of ``x`` for the Lagrangian program.

    ``side='penalty'`` checks ``||y - Az||^2 + lam*R(z)``;
    ``side='loss'`` checks ``lam*||y - Az||^2 + R(z)``.  ``lam`` must be
    positive and finite, as in :class:`clotkit.solvers.Lagrangian`.
    """
    loss_w, pen_w = Lagrangian(lam, side).weights
    grad = 2.0 * loss_w * (A.T @ (A @ x - y))
    return subdiff_distance(spec, x, -grad, pen_w)
