"""Solvers for the penalized and noise-constrained sparse regression programs.

Two problem forms are handled:

* Lagrangian, either ``||y - Az||^2 + lam*R(z)`` (multiplier on the penalty)
  or ``lam*||y - Az||^2 + R(z)`` (multiplier on the loss), solved with
  accelerated proximal gradient descent with a gradient restart and one
  gradient evaluation (one Gram product, or one forward and one adjoint
  product) per iteration;
* noise-constrained, ``min R(z) s.t. ||Az - y||_2 <= eps``, solved by one
  search on the loss-side multiplier: a tenfold warm-started walk until the
  residual meets the budget, then a safeguarded secant that closes the last
  bracket when ``eps > 0``, or a least-squares refit on the detected support
  when ``eps = 0``.

Every Lagrangian solve is certified by the independent subgradient check in
:mod:`clotkit.kkt`; failure to converge is reported through the result, not
raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .kkt import subdiff_distance
from .regularizers import RegularizerSpec, penalty_gauge_at_zero, penalty_value, prox

__all__ = [
    "Lagrangian",
    "Constrained",
    "Problem",
    "SolverOptions",
    "SolveResult",
    "PathPoint",
    "InfeasibleError",
    "solve_lagrangian",
    "solve_constrained",
    "solution_path",
    "penalty_gauge_at_zero",
    "lambda_zero_threshold",
]


class InfeasibleError(ValueError):
    """The noise-constrained program has an empty feasible set."""


@dataclass(frozen=True)
class Lagrangian:
    """Multiplier form; ``side`` says which term carries the multiplier."""

    lam: float
    side: str = "penalty"

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.side not in ("penalty", "loss"):
            raise ValueError(f"side must be 'penalty' or 'loss', got {self.side!r}")


@dataclass(frozen=True)
class Constrained:
    """Noise-budget form with ``||Az - y||_2 <= eps``."""

    eps: float

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be nonnegative and finite, got {self.eps}")


@dataclass
class Problem:
    A: np.ndarray
    y: np.ndarray
    form: object

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        if y.ndim != 1:
            raise ValueError("y must be a 1-D vector")
        if A.shape[0] != y.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but y has length {y.shape[0]}")
        if not np.all(np.isfinite(A)):
            raise ValueError("A contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        if not isinstance(self.form, (Lagrangian, Constrained)):
            raise ValueError("form must be Lagrangian or Constrained")
        self.A, self.y = A, y


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and iteration limits.

    ``kkt_tol`` is relative: a Lagrangian solve stops once the subgradient
    gap falls below ``kkt_tol * max(1, |gradient at the origin|_inf)``.
    ``feas_tol`` is the relative slack of the noise budget, and for
    ``eps > 0`` also the width of the residual window the multiplier search
    aims for.
    """

    kkt_tol: float = 1e-8
    feas_tol: float = 1e-6
    max_iters: int = 50_000
    check_every: int = 25


@dataclass
class SolveResult:
    x_hat: np.ndarray
    objective: float
    residual_l2: float
    iterations: int
    kkt_residual: float
    converged: bool
    info: dict = field(default_factory=dict)


@dataclass
class PathPoint:
    lam: float
    result: Optional[SolveResult]
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# per-(A, y) data-fit state, optionally routed through the Gram matrix
# ---------------------------------------------------------------------------

_POWER_ITERS = 50
_POWER_TOL = 1e-10
_GRAM_MAX_N = 2048  # the Gram matrix holds n^2 floats


class _Workspace:
    """Per-(A, y) state shared across warm-started solves: the half-gradient
    ``A^T(Ax - y)`` of ``||Ax - y||^2``, and ``sigma2``, the largest squared
    singular value of A.

    The product ``A^T A x`` is chosen once, here, from the shape.  A tall-ish
    problem with at most ``_GRAM_MAX_N`` columns precomputes ``A^T A``; one
    Gram matvec (n^2 flops) then beats the two rectangular products (2*m*n
    flops) whenever n < 2m.  Values and residual norms always come from
    ``Ax - y``, which keeps their precision at any residual size.
    """

    def __init__(self, A, y):
        m, n = A.shape
        if n <= 2 * m and n <= _GRAM_MAX_N:
            gram = A.T @ A
            self.normal = lambda x: gram @ x
        else:
            self.normal = lambda x: A.T @ (A @ x)
        self.A, self.y, self.n = A, y, n
        self.aty = A.T @ y

        # power iteration on A^T A
        v = np.random.default_rng(0).standard_normal(n)
        v /= np.linalg.norm(v)
        lam = lam_prev = 0.0
        for _ in range(_POWER_ITERS):
            w = self.normal(v)
            lam = float(np.linalg.norm(w))
            if lam == 0.0:
                break
            v = w / lam
            if abs(lam - lam_prev) <= _POWER_TOL * lam:
                break
            lam_prev = lam
        if lam <= 0.0:
            raise ValueError("A must be nonzero")
        self.sigma2 = lam

    def half_grad(self, x):
        return self.normal(x) - self.aty


# ---------------------------------------------------------------------------
# accelerated proximal gradient with gradient restart, one gradient
# evaluation per iteration
# ---------------------------------------------------------------------------

_MAX_HALVINGS = 60


class _StepSearchExhausted(ArithmeticError):
    pass


def _fista(ws: _Workspace, spec, loss_w, pen_w, opts: SolverOptions, x0=None):
    """FISTA on ``loss_w*||Ax - y||^2 + pen_w*R(x)``.

    The half-gradient ``h = A^T(A . - y)`` is carried next to each point.  It
    is affine, so the extrapolated point's ``h`` is the same combination of
    two freshly evaluated ones and costs no product.  Returns
    ``(x, iterations, kkt, converged, stats)``.
    """
    c = 2.0 * loss_w  # gradient of the smooth part = c * h
    tol = opts.kkt_tol * max(1.0, c * float(np.max(np.abs(ws.aty), initial=0.0)))
    stats = {"restarts": 0, "backtracks": 0, "grad_evals": 1, "step_search_exhausted": False}

    x = np.zeros(ws.n) if x0 is None else np.array(x0, dtype=float)
    hx = ws.half_grad(x)
    kkt = subdiff_distance(spec, x, -c * hx, pen_w)
    if kkt <= tol:
        return x, 0, kkt, True, stats
    step = 1.0 / (c * ws.sigma2)

    def descend(z, hz):
        """Prox-gradient step ``d`` from z to w.  For the quadratic the
        descent lemma reads ``c * d^T(h_w - h_z) <= |d|^2 / step``; the step
        is halved only when that fails beyond rounding and the power
        iteration's tolerance."""
        nonlocal step
        for halving in range(_MAX_HALVINGS + 1):
            if halving:
                step *= 0.5
                stats["backtracks"] += 1
            w = prox(spec, z - (step * c) * hz, step * pen_w)
            hw = ws.half_grad(w)
            stats["grad_evals"] += 1
            d = w - z
            dd = float(d @ d)
            excess = c * float(d @ (hw - hz)) - dd / step
            if excess <= 1e-9 * dd / step or excess <= 1e-14 * c * np.sqrt(dd) * (
                    np.linalg.norm(hw) + np.linalg.norm(hz)):
                return w, hw, d
        raise _StepSearchExhausted

    z, hz, t = x, hx, 1.0
    iters = 0
    converged = False
    try:
        while iters < opts.max_iters:
            iters += 1
            w, hw, d = descend(z, hz)
            wx = w - x
            if float(d @ wx) < 0.0:
                # momentum points uphill (O'Donoghue & Candes): redo the step from x
                stats["restarts"] += 1
                t = 1.0
                w, hw, wx = descend(x, hx)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            z = w + beta * wx
            hz = hw + beta * (hw - hx)
            x, hx, t = w, hw, t_next

            if iters % opts.check_every == 0 or iters == opts.max_iters:
                kkt = subdiff_distance(spec, x, -c * hx, pen_w)
                if kkt <= tol:
                    converged = True
                    break
    except _StepSearchExhausted:
        stats["step_search_exhausted"] = True
        kkt = subdiff_distance(spec, x, -c * hx, pen_w)
    return x, iters, kkt, converged, stats


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

_MAX_STAGES = 16  # solves of the tenfold walk, and of the secant
_STAGE_ITERS = 3000  # iteration cap of each eps = 0 solve
_SUPPORT_REL_TOL = 1e-6  # eps = 0 refit support: |x_i| above this times max|x|


def solve_lagrangian(problem: Problem, spec: RegularizerSpec, opts: SolverOptions = None,
                     _ws: _Workspace = None, *, x0=None) -> SolveResult:
    """Solve the multiplier form of the program given by ``problem.form``,
    starting from ``x0`` (zero by default).

    Returns a result whose ``kkt_residual`` comes from the independent
    subgradient check; non-convergence sets ``converged=False`` instead of
    raising.  ``info`` counts the ``restarts``, ``backtracks`` and
    ``grad_evals`` (Gram products, or forward-plus-adjoint pairs) of the
    solve, and flags a ``step_search_exhausted`` after 60 halvings.
    """
    opts = opts or SolverOptions()
    form = problem.form
    if not isinstance(form, Lagrangian):
        raise ValueError("solve_lagrangian needs a Lagrangian-form problem")
    spec.check_dimension(problem.A.shape[1])
    ws = _ws or _Workspace(problem.A, problem.y)
    loss_w = form.lam if form.side == "loss" else 1.0
    pen_w = 1.0 if form.side == "loss" else form.lam

    x, iters, kkt, converged, stats = _fista(ws, spec, loss_w, pen_w, opts, x0)
    r = ws.A @ x - ws.y
    rr = float(r @ r)
    return SolveResult(
        x_hat=x,
        objective=loss_w * rr + pen_w * penalty_value(spec, x),
        residual_l2=math.sqrt(rr),
        iterations=iters,
        kkt_residual=kkt,
        converged=converged,
        info={"form": "lagrangian", "lambda": form.lam, "side": form.side, **stats},
    )


def solve_constrained(problem: Problem, spec: RegularizerSpec, opts: SolverOptions = None) -> SolveResult:
    """Minimize the penalty subject to ``||Az - y||_2 <= eps``.

    One search on the loss-side multiplier ``lam`` of
    ``lam*||Az - y||^2 + R(z)``, whose residual falls as ``lam`` grows.  From
    the zero-solution threshold, ``lam`` grows tenfold per warm-started solve
    until the residual meets the target: ``eps``, or ``1e-9*||y||`` when
    ``eps = 0``.  A penalty with no exact zero solution (ridge) whose first
    solve is already inside the budget walks ``lam`` down instead.

    ``eps > 0``: an Illinois-safeguarded secant on ``(log lam, log residual)``
    closes the last bracket and stops once the residual is within
    ``feas_tol`` of ``eps``, relatively.  The window is two-sided because at
    the default ``kkt_tol`` an inner solve pins the residual down only to
    about 1e-7 relative, so a one-sided window can be stepped over.  A
    search that ends outside the window reports ``converged=False``.
    ``eps = 0``: each solve is capped at 3000 iterations, and
    the estimate is refit on its support by least squares, keeping the refit
    only if it does not worsen the penalty.

    ``info["stages"]`` lists one ``(lam, residual, iterations)`` entry per
    inner solve, and ``info["inner_solves"]`` counts them.
    """
    opts = opts or SolverOptions()
    form = problem.form
    if not isinstance(form, Constrained):
        raise ValueError("solve_constrained needs a Constrained-form problem")
    A, y, eps = problem.A, problem.y, form.eps
    spec.check_dimension(A.shape[1])
    ynorm = float(np.linalg.norm(y))
    feas_slack = opts.feas_tol * max(1.0, ynorm)

    if ynorm <= eps:
        x = np.zeros(A.shape[1])
        return SolveResult(x, 0.0, ynorm, 0, 0.0, True,
                           info={"form": "constrained", "eps": eps, "inner_solves": 0, "stages": [],
                                 "polished": False, "feasible": True})

    x_ls, *_ = np.linalg.lstsq(A, y, rcond=None)
    r_min = float(np.linalg.norm(A @ x_ls - y))
    if r_min > eps + feas_slack:
        raise InfeasibleError(
            f"least-squares residual {r_min:.6g} exceeds the noise budget eps={eps:.6g}"
        )

    ws = _Workspace(A, y)
    gauge = penalty_gauge_at_zero(spec, ws.aty)
    exact_zero = np.isfinite(gauge) and gauge > 0
    lam0 = 1.0 / (2.0 * gauge) if exact_zero else \
        1.0 / (2.0 * max(float(np.max(np.abs(ws.aty), initial=0.0)), 1e-12))
    target = eps if eps > 0 else 1e-9 * ynorm  # relative, so eps = 0 is scale-equivariant
    # eps = 0 stages only hand a warm start to the next multiplier; the refit
    # and the feasibility check decide the final quality
    inner_opts = opts if eps > 0 else replace(opts, max_iters=min(opts.max_iters, _STAGE_ITERS))
    stages = []

    def solve_at(lam, x0):
        res = solve_lagrangian(Problem(A, y, Lagrangian(lam, "loss")), spec, inner_opts,
                               _ws=ws, x0=x0)
        stages.append((lam, res.residual_l2, res.iterations))
        return res

    # tenfold walk; lo/hi are the last (lam, residual) above/within the target
    lo = (lam0, ynorm) if exact_zero else None
    hi = best = res = None
    k, step = 0, 1
    for _ in range(_MAX_STAGES):
        k += step
        lam = lam0 * 10.0**k
        res = solve_at(lam, None if res is None else res.x_hat)
        if res.residual_l2 <= target:
            hi, best = (lam, res.residual_l2), res
            if lo is not None or eps == 0.0:
                break
            step = -1  # no exact zero solution below: walk down to bracket the budget
        else:
            lo = (lam, res.residual_l2)
            if hi is not None:
                break

    def settled(r):
        return abs(r - eps) <= opts.feas_tol * eps

    if eps > 0 and lo is not None and hi is not None and not settled(hi[1]):
        # Illinois secant on f(t) = log(residual / eps), t = log(lam)
        t_lo, f_lo = math.log(lo[0]), math.log(lo[1] / eps)
        t_hi, f_hi = math.log(hi[0]), math.log(max(hi[1], 1e-300) / eps)
        side = 0
        for _ in range(_MAX_STAGES):
            t = t_hi - f_hi * (t_hi - t_lo) / (f_hi - f_lo)
            res = solve_at(math.exp(t), res.x_hat)
            if settled(res.residual_l2):
                best = res
                break
            f = math.log(max(res.residual_l2, 1e-300) / eps)
            if f < 0:
                t_hi, f_hi, best = t, f, res
                if side == 1:
                    f_lo *= 0.5
                side = 1
            else:
                t_lo, f_lo = t, f
                if side == -1:
                    f_hi *= 0.5
                side = -1

    inner = res if best is None else best
    x, residual, polished = inner.x_hat, inner.residual_l2, False
    if eps == 0.0 and np.max(np.abs(x)) > 0:
        support = np.abs(x) > _SUPPORT_REL_TOL * np.max(np.abs(x))
        xp = np.zeros_like(x)
        xp[support] = np.linalg.lstsq(A[:, support], y, rcond=None)[0]
        rp = float(np.linalg.norm(A @ xp - y))
        # scale-relative acceptance so equivariance survives the refit
        if rp <= residual * (1.0 + 1e-9) + 1e-14 * ynorm and \
                penalty_value(spec, xp) <= penalty_value(spec, x) * (1.0 + 1e-9):
            x, residual, polished = xp, rp, True

    if eps == 0.0:
        feasible = residual <= feas_slack
        converged = feasible and (inner.converged or polished)
    else:
        feasible = residual <= eps * (1.0 + opts.feas_tol) + 1e-12
        converged = settled(residual) and inner.converged  # an unsettled search is not hidden
    return SolveResult(
        x_hat=x,
        objective=penalty_value(spec, x),
        residual_l2=residual,
        iterations=sum(s[2] for s in stages),
        kkt_residual=inner.kkt_residual,
        converged=bool(converged),
        info={"form": "constrained", "eps": eps, "inner_solves": len(stages), "stages": stages,
              "polished": polished, "feasible": feasible},
    )


def solution_path(problem: Problem, spec: RegularizerSpec, lambda_grid, opts: SolverOptions = None):
    """Solve the Lagrangian program along a strictly monotone multiplier grid.

    Each point is warm-started from the previous one.  A point that fails
    with a solver error (``ValueError``, ``ArithmeticError`` or
    ``LinAlgError``) is recorded with its message instead of aborting the
    path; any other exception propagates.
    """
    opts = opts or SolverOptions()
    form = problem.form
    if not isinstance(form, Lagrangian):
        raise ValueError("solution_path needs a Lagrangian-form template problem")
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda_grid must be a nonempty 1-D sequence")
    diffs = np.diff(grid)
    if grid.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("lambda_grid must be strictly monotone")
    if np.any(grid <= 0):
        raise ValueError("lambda_grid entries must be positive")

    ws = _Workspace(problem.A, problem.y)
    points = []
    warm = None
    for lam in grid:
        try:
            res = solve_lagrangian(Problem(problem.A, problem.y, Lagrangian(float(lam), form.side)),
                                   spec, opts, _ws=ws, x0=warm)
            warm = res.x_hat
            points.append(PathPoint(float(lam), res))
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:  # keep walking the path
            points.append(PathPoint(float(lam), None, error=str(exc)))
    return points


# ---------------------------------------------------------------------------
# zero-solution thresholds
# ---------------------------------------------------------------------------


def lambda_zero_threshold(spec: RegularizerSpec, A, y, side: str = "penalty") -> float:
    """Multiplier level at which the zero vector becomes optimal.

    Penalty side: zero is optimal for all ``lam`` at or above the returned
    value.  Loss side: zero is optimal for all ``lam`` at or below it.
    """
    c = np.asarray(A).T @ np.asarray(y)
    gauge = penalty_gauge_at_zero(spec, c)
    if side == "penalty":
        return 2.0 * gauge
    if side == "loss":
        if gauge == 0.0:
            return np.inf
        return 0.0 if not np.isfinite(gauge) else 1.0 / (2.0 * gauge)
    raise ValueError(f"side must be 'penalty' or 'loss', got {side!r}")
