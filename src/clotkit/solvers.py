"""Solvers for the penalized and noise-constrained sparse regression programs.

Two problem forms are handled:

* Lagrangian, either ``||y - Az||^2 + lam*R(z)`` (multiplier on the penalty)
  or ``lam*||y - Az||^2 + R(z)`` (multiplier on the loss), solved with
  accelerated proximal gradient descent with a gradient restart and one
  gradient evaluation (one Gram product, or one forward and one adjoint
  product) per iteration;
* noise-constrained, ``min R(z) s.t. ||Az - y||_2 <= eps``, solved by a
  homotopy on the Lagrangian multiplier: bisection when ``eps > 0``, and for
  ``eps = 0`` a multiplier ramp followed by a least-squares polish on the
  detected support.

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


@dataclass
class SolverOptions:
    """Tolerances and iteration limits.

    ``kkt_tol`` is relative: a Lagrangian solve stops once the subgradient
    gap falls below ``kkt_tol * max(1, |gradient at the origin|_inf)``.
    """

    kkt_tol: float = 1e-8
    feas_tol: float = 1e-6
    obj_tol: float = 1e-8
    max_iters: int = 50_000
    check_every: int = 25
    power_iters: int = 50
    power_tol: float = 1e-10
    use_gram: Optional[bool] = None
    bisection_steps: int = 60
    lambda_floor: float = 1e-10
    polish: bool = True
    support_rel_tol: float = 1e-6
    ramp_factor: float = 10.0
    ramp_max_stages: int = 16
    ramp_stage_iters: int = 3000


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
# quadratic data-fit term, optionally routed through the Gram matrix
# ---------------------------------------------------------------------------


class _Quadratic:
    """Half-gradient ``A^T(Ax - y)`` of ``||Ax - y||^2``, and its residual.

    For tall-ish problems the Gram matrix ``A^T A`` is precomputed; one
    Gram matvec (n^2 flops) then beats the two rectangular products
    (2*m*n flops) whenever n < 2m.  Values and residual norms always come
    from ``Ax - y``, which keeps their precision at any residual size.
    """

    def __init__(self, A, y, use_gram=None):
        m, n = A.shape
        if use_gram is None:
            use_gram = n <= 2 * m and n <= 2048
        self.A, self.y = A, y
        self.n = n
        self.aty = A.T @ y
        self.gram = A.T @ A if use_gram else None

    def normal(self, x):
        """``A^T A x``: one Gram product, or one forward plus one adjoint."""
        if self.gram is not None:
            return self.gram @ x
        return self.A.T @ (self.A @ x)

    def half_grad(self, x):
        return self.normal(x) - self.aty

    def residual(self, x):
        return self.A @ x - self.y

    def sigma_sq_max(self, iters=50, tol=1e-10, seed=0):
        """Largest squared singular value of A, by power iteration on A^T A."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        lam_prev = 0.0
        for _ in range(iters):
            w = self.normal(v)
            lam = float(np.linalg.norm(w))
            if lam == 0.0:
                return 0.0
            v = w / lam
            if abs(lam - lam_prev) <= tol * lam:
                break
            lam_prev = lam
        return lam


class _Workspace:
    """Per-(A, y) state shared across warm-started solves."""

    def __init__(self, A, y, opts: SolverOptions):
        self.quad = _Quadratic(A, y, opts.use_gram)
        self.sigma2 = self.quad.sigma_sq_max(opts.power_iters, opts.power_tol)
        if self.sigma2 <= 0.0:
            raise ValueError("A must be nonzero")


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
    quad = ws.quad
    c = 2.0 * loss_w  # gradient of the smooth part = c * h
    tol = opts.kkt_tol * max(1.0, c * float(np.max(np.abs(quad.aty), initial=0.0)))
    stats = {"restarts": 0, "backtracks": 0, "grad_evals": 1, "step_search_exhausted": False}

    x = np.zeros(quad.n) if x0 is None else np.array(x0, dtype=float)
    hx = quad.half_grad(x)
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
            hw = quad.half_grad(w)
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
    ws = _ws or _Workspace(problem.A, problem.y, opts)
    loss_w = form.lam if form.side == "loss" else 1.0
    pen_w = 1.0 if form.side == "loss" else form.lam

    x, iters, kkt, converged, stats = _fista(ws, spec, loss_w, pen_w, opts, x0)
    r = ws.quad.residual(x)
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

    ``eps > 0``: bisection on the penalty-side multiplier (the residual is
    nondecreasing in it), warm-starting each inner solve.  ``eps = 0``: ramp
    the loss-side multiplier until the residual is negligible, then refit on
    the detected support by least squares, keeping the refit only if it does
    not worsen the penalty.
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
                           info={"form": "constrained", "eps": eps, "trivial_zero": True})

    x_ls, *_ = np.linalg.lstsq(A, y, rcond=None)
    r_min = float(np.linalg.norm(A @ x_ls - y))
    if r_min > eps + feas_slack:
        raise InfeasibleError(
            f"least-squares residual {r_min:.6g} exceeds the noise budget eps={eps:.6g}"
        )

    ws = _Workspace(A, y, opts)
    if eps == 0.0:
        return _solve_eps_zero(problem, spec, opts, ws, feas_slack)
    return _solve_eps_positive(problem, spec, opts, ws, eps, feas_slack)


def _solve_eps_zero(problem, spec, opts, ws, feas_slack):
    A, y = problem.A, problem.y
    ynorm = float(np.linalg.norm(y))
    gauge = penalty_gauge_at_zero(spec, ws.quad.aty)
    lam0 = 1.0 / (2.0 * gauge) if np.isfinite(gauge) and gauge > 0 else \
        1.0 / (2.0 * max(float(np.max(np.abs(ws.quad.aty), initial=0.0)), 1e-12))
    r_target = 1e-9 * ynorm  # relative, so the ramp is scale-equivariant

    x = np.zeros(A.shape[1])
    total_iters = 0
    lam_path = []
    inner = None
    # stages only need to hand a good warm start to the next multiplier;
    # the polish and the feasibility check decide the final quality
    stage_opts = replace(opts, max_iters=min(opts.max_iters, opts.ramp_stage_iters))
    for stage in range(1, opts.ramp_max_stages + 1):
        lam = lam0 * opts.ramp_factor**stage
        inner = solve_lagrangian(Problem(A, y, Lagrangian(lam, "loss")), spec, stage_opts,
                                 _ws=ws, x0=x)
        x = inner.x_hat
        total_iters += inner.iterations
        lam_path.append(lam)
        if inner.residual_l2 <= r_target:
            break

    polished = False
    residual = inner.residual_l2
    if opts.polish and np.max(np.abs(x)) > 0:
        support = np.abs(x) > opts.support_rel_tol * np.max(np.abs(x))
        if 0 < support.sum():
            xp = np.zeros_like(x)
            sol, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
            xp[support] = sol
            rp = float(np.linalg.norm(A @ xp - y))
            pen_x = penalty_value(spec, x)
            pen_p = penalty_value(spec, xp)
            # scale-relative acceptance so equivariance survives the polish
            if rp <= residual * (1.0 + 1e-9) + 1e-14 * ynorm and pen_p <= pen_x * (1.0 + 1e-9):
                x, residual, polished = xp, rp, True

    feasible = residual <= feas_slack
    return SolveResult(
        x_hat=x,
        objective=penalty_value(spec, x),
        residual_l2=residual,
        iterations=total_iters,
        kkt_residual=inner.kkt_residual,
        converged=bool(feasible and (inner.converged or polished)),
        info={"form": "constrained", "eps": 0.0, "lambda_path": lam_path,
              "polished": polished, "feasible": feasible},
    )


def _solve_eps_positive(problem, spec, opts, ws, eps, feas_slack):
    A, y = problem.A, problem.y

    def solve_at(lam, x0):
        return solve_lagrangian(Problem(A, y, Lagrangian(lam, "penalty")), spec, opts, _ws=ws, x0=x0)

    gauge = penalty_gauge_at_zero(spec, ws.quad.aty)
    warm = np.zeros(A.shape[1])
    if np.isfinite(gauge) and gauge > 0:
        lam_hi = 2.0 * gauge
    else:
        lam_hi = 1.0  # ridge-like penalties never reach an exact zero solution
        for _ in range(80):
            res = solve_at(lam_hi, warm)
            warm = res.x_hat
            if res.residual_l2 >= eps:
                break
            lam_hi *= 4.0

    lam_lo = opts.lambda_floor
    best = None
    total_iters = 0
    stable = 0
    for _ in range(opts.bisection_steps):
        lam_mid = float(np.sqrt(lam_lo * lam_hi))
        res = solve_at(lam_mid, warm)
        warm = res.x_hat
        total_iters += res.iterations
        if res.residual_l2 <= eps:
            lam_lo = lam_mid
            prev = best
            best = (lam_mid, res)
            # stop once the feasible-side penalty has stabilized to obj_tol
            if prev is not None:
                pen_prev = penalty_value(spec, prev[1].x_hat)
                pen_new = penalty_value(spec, res.x_hat)
                stable = stable + 1 if abs(pen_new - pen_prev) <= opts.obj_tol * max(1.0, pen_prev) else 0
                if stable >= 5:
                    break
        else:
            lam_hi = lam_mid
        if lam_hi / lam_lo < 1.0 + 1e-14:
            break

    if best is None:
        res = solve_at(lam_lo, warm)
        total_iters += res.iterations
        best = (lam_lo, res)
    lam_star, res = best
    feasible = res.residual_l2 <= eps * (1.0 + opts.feas_tol) + 1e-12
    return SolveResult(
        x_hat=res.x_hat,
        objective=penalty_value(spec, res.x_hat),
        residual_l2=res.residual_l2,
        iterations=total_iters,
        kkt_residual=res.kkt_residual,
        converged=bool(res.converged and feasible),
        info={"form": "constrained", "eps": eps, "lambda_star": lam_star,
              "feasible": feasible},
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

    ws = _Workspace(problem.A, problem.y, opts)
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
