"""Solvers for the penalized and noise-constrained sparse regression programs.

Two problem forms are handled:

* Lagrangian, either ``||y - Az||^2 + lam*R(z)`` (multiplier on the penalty)
  or ``lam*||y - Az||^2 + R(z)`` (multiplier on the loss), solved with
  accelerated proximal gradient descent with a gradient restart and one
  gradient evaluation (one Gram product, or one forward and one adjoint
  product) per iteration, and a Newton finish: at a certificate check that
  fails after the sign pattern held since the previous one, up to
  ``_NEWTON_STEPS`` (8) Newton steps on the support, where the objective is
  smooth, propose a candidate that is kept only if the certificate passes at
  the solve's tolerance;
* noise-constrained, ``min R(z) s.t. ||Az - y||_2 <= eps``, solved by one
  search on the loss-side multiplier: a tenfold warm-started walk until the
  residual meets the budget, then a safeguarded secant that closes the last
  bracket when ``eps > 0``.  When ``eps = 0`` a least-squares refit on the
  detected support ends the walk at the first stage whose refit carries an
  exact dual certificate.

Every Lagrangian solve is certified by the penalty family's subgradient
distance, checked every ``_CHECK_EVERY`` (10) iterations; failure to converge
is reported through the result, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .regularizers import RegularizerSpec, penalty_gauge_at_zero, penalty_value, prox, subdiff_distance

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
    "lambda_zero_threshold",
    "support",
]


class InfeasibleError(ValueError):
    """The noise-constrained program has an empty feasible set, as judged after the search."""


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
    aims for.  Both must be positive and finite, and ``max_iters`` an integer
    of at least 1.  The certificate is checked every ``_CHECK_EVERY`` iterations.
    """

    kkt_tol: float = 1e-8
    feas_tol: float = 1e-6
    max_iters: int = 50_000

    def __post_init__(self):
        for name in ("kkt_tol", "feas_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise ValueError(f"max_iters must be an integer of at least 1, got {iters!r}")


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
    result: SolveResult


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
_CHECK_EVERY = 10  # iterations between certificate checks
_NEWTON_STEPS = 8  # Newton steps of one attempt
_NEWTON_MAX_SUPPORT = 256  # wider supports, or wider than A has rows, are left to FISTA


class _StepSearchExhausted(ArithmeticError):
    pass


def _newton_candidate(ws: _Workspace, spec, loss_w, pen_w, x):
    """Newton's method on the objective restricted to the support S and sign
    pattern s of ``x``, where it is smooth:
    ``loss_w*||A_S z - y||^2 + pen_w*(a*s^T z + b*||z||^2 + c*sum_g ||z_g||)``.

    The Hessian is ``2*loss_w*A_S^T A_S + 2*pen_w*b*I`` plus
    ``pen_w*c*(I/||z_g|| - z_g z_g^T/||z_g||^3)`` on each group's block.
    Returns the zero-padded minimizer, or None when S is empty or wider than
    ``_NEWTON_MAX_SUPPORT`` or than A has rows, the Hessian is singular, or a
    step leaves the finite numbers or changes a sign.  Beyond A's row count
    ``A_S^T A_S`` is singular, only the penalty curves the restriction across
    its null space, and the minimizer is seldom on the same sign pattern.
    """
    S = np.flatnonzero(x)
    if not 0 < S.size <= min(_NEWTON_MAX_SUPPORT, ws.A.shape[0]):
        return None
    a, b, c = spec.weights
    z = x[S]
    s = np.sign(z)
    A_S = ws.A[:, S]
    quad = (2.0 * loss_w) * (A_S.T @ A_S)
    quad.flat[::S.size + 1] += 2.0 * pen_w * b
    lin = (2.0 * loss_w) * ws.aty[S] - (pen_w * a) * s  # gradient = quad @ z - lin + group term
    if c:
        labels = np.zeros(S.size, dtype=np.intp) if spec.partition is None else spec.partition.labels[S]
        same = labels[:, None] == labels
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            grad, hess = quad @ z - lin, quad
            if c:
                norms = np.sqrt(np.bincount(labels, z * z))[labels]
                u = z / norms
                grad = grad + (pen_w * c) * u
                hess = quad + (pen_w * c) * (np.diag(1.0 / norms) - same * np.outer(u, u / norms))
            try:
                d = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                return None
            z = z - d
            if not np.all(np.isfinite(z)) or np.any(np.sign(z) != s):
                return None
            # without the group term the restriction is quadratic: one step is exact
            if not c or np.max(np.abs(d)) <= 1e-12 * np.max(np.abs(z)):
                break
    cand = np.zeros(ws.n)
    cand[S] = z
    return cand


def _fista(ws: _Workspace, spec, loss_w, pen_w, opts: SolverOptions, x0=None):
    """FISTA on ``loss_w*||Ax - y||^2 + pen_w*R(x)``.

    The half-gradient ``h = A^T(A . - y)`` is carried next to each point.  It
    is affine, so the extrapolated point's ``h`` is the same combination of
    two freshly evaluated ones and costs no product.  Returns
    ``(x, iterations, kkt, converged, stats)``.

    At each failing check whose sign pattern held since the previous check
    (or the warm start) and is new in this solve, :func:`_newton_candidate`
    proposes a candidate that ends the solve if it passes the same certificate
    at the same ``tol``; a refused candidate leaves FISTA untouched.
    """
    c = 2.0 * loss_w  # gradient of the smooth part = c * h
    tol = opts.kkt_tol * max(1.0, c * float(np.max(np.abs(ws.aty), initial=0.0)))
    stats = {"restarts": 0, "backtracks": 0, "grad_evals": 1, "step_search_exhausted": False,
             "newton_attempts": 0, "newton_checks": 0, "newton_accepts": 0}

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
    signs, tried = np.sign(x), set()
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

            if iters % _CHECK_EVERY == 0 or iters == opts.max_iters:
                kkt = subdiff_distance(spec, x, -c * hx, pen_w)
                converged = kkt <= tol
                prev, signs = signs, np.sign(x)
                if not converged and np.array_equal(signs, prev) and (key := signs.tobytes()) not in tried:
                    tried.add(key)
                    stats["newton_attempts"] += 1
                    cand = _newton_candidate(ws, spec, loss_w, pen_w, x)
                    if cand is not None:
                        stats["grad_evals"] += 1
                        stats["newton_checks"] += 1
                        kc = subdiff_distance(spec, cand, -c * ws.half_grad(cand), pen_w)
                        if kc <= tol:
                            stats["newton_accepts"] += 1
                            x, kkt, converged = cand, kc, True
                if converged:
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


def support(x) -> np.ndarray:
    """Indices of the entries of ``x`` above ``1e-6`` times its largest magnitude."""
    return np.flatnonzero(np.abs(x) > _SUPPORT_REL_TOL * np.max(np.abs(x), initial=0.0))


def solve_lagrangian(problem: Problem, spec: RegularizerSpec, opts: SolverOptions = None,
                     _ws: _Workspace = None, *, x0=None) -> SolveResult:
    """Solve the multiplier form of the program given by ``problem.form``,
    starting from ``x0`` (zero by default).

    Returns a result whose ``kkt_residual`` comes from the independent
    subgradient check; non-convergence sets ``converged=False`` instead of
    raising.  ``info`` counts the ``restarts``, ``backtracks`` and
    ``grad_evals`` (Gram products, or forward-plus-adjoint pairs) of the
    solve, and flags a ``step_search_exhausted`` after 60 halvings.

    Newton finish: at a failing certificate check whose sign pattern held
    since the previous check and was not tried before in this solve, Newton's
    method on the support proposes a candidate (``info["newton_attempts"]``).
    An attempt is abandoned at the first sign change, a non-finite value, a
    singular Hessian, or a support wider than ``_NEWTON_MAX_SUPPORT`` (256) or
    than A has rows.  Each candidate costs one gradient evaluation for its
    certificate (``info["newton_checks"]``), and ends the solve when that
    certificate passes at the same tolerance as FISTA's own
    (``info["newton_accepts"]``).
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
    ``feas_tol`` of ``eps``, relatively.  The inner solves run at
    ``kkt_tol * eps/||y||``: the certificate is relative to the gradient at
    the origin, which scales with ``||y||``, while the window is relative to
    ``eps``.  The window is two-sided because even so an inner
    solve pins the residual down only to about 1e-7 relative, so a one-sided
    window can be stepped over.  A search that ends outside the window
    reports ``converged=False``.
    ``eps = 0``: each solve is capped at 3000 iterations.  The walk ends at the
    first stage whose normal-equation refit z on its :func:`support` S (each S
    once, at most A's row count wide) keeps S, meets the target and passes
    Fuchs's certificate: ``theta = A_S (A_S^T A_S)^{-1} grad R_S(z)`` with
    ``subdiff_distance(spec, z, A^T theta) <= kkt_tol*max(1, |grad R_S|_inf)``.
    That z is returned, with the distance as ``kkt_residual``.  Otherwise
    ``kkt_residual`` is the last inner solve's, and that solve's ``lstsq`` refit
    on its support is kept only if it worsens no residual and no penalty.

    ``info["stages"]`` lists one ``(lam, residual, iterations)`` entry per
    inner solve, and ``info["inner_solves"]`` counts them.

    Feasibility is judged after the search: a final residual above
    ``eps + feas_tol*max(1, ||y||)`` leads to one least-squares solve on A,
    and ``InfeasibleError`` when that residual is above the threshold too.
    """
    opts = opts or SolverOptions()
    form = problem.form
    if not isinstance(form, Constrained):
        raise ValueError("solve_constrained needs a Constrained-form problem")
    A, y, eps = problem.A, problem.y, form.eps
    spec.check_dimension(A.shape[1])
    ynorm = float(np.linalg.norm(y))
    feas_slack = opts.feas_tol * max(1.0, ynorm)

    stages, tried = [], set()

    def result(x, residual, kkt, converged, polished, feasible, certified):  # every return builds this
        info = {"form": "constrained", "eps": eps, "inner_solves": len(stages), "stages": stages,
                "polished": polished, "feasible": feasible, "certified": certified}
        return SolveResult(x, penalty_value(spec, x), residual, sum(s[2] for s in stages), kkt,
                           bool(converged), info)

    if ynorm <= eps:  # zero is optimal, certified by theta = 0
        return result(np.zeros(A.shape[1]), ynorm, 0.0, converged=True, polished=False, feasible=True,
                      certified=True)

    def check_feasible(residual):  # least squares attains the least residual of any z
        if residual > eps + feas_slack:
            r_min = float(np.linalg.norm(A @ np.linalg.lstsq(A, y, rcond=None)[0] - y))
            if r_min > eps + feas_slack:
                raise InfeasibleError(
                    f"least-squares residual {r_min:.6g} exceeds the noise budget eps={eps:.6g}")

    try:
        ws = _Workspace(A, y)
    except ValueError:  # a zero A, which leaves the residual at ||y|| for every z
        check_feasible(ynorm)
        raise
    gauge = penalty_gauge_at_zero(spec, ws.aty)
    exact_zero = np.isfinite(gauge) and gauge > 0
    lam0 = 1.0 / (2.0 * gauge) if exact_zero else \
        1.0 / (2.0 * max(float(np.max(np.abs(ws.aty), initial=0.0)), 1e-12))
    target = eps if eps > 0 else 1e-9 * ynorm  # relative, so eps = 0 is scale-equivariant
    inner_opts = replace(opts, kkt_tol=opts.kkt_tol * eps / ynorm) if eps > 0 else \
        replace(opts, max_iters=min(opts.max_iters, _STAGE_ITERS))

    def certify(x):
        # (refit, residual, dual distance) when certified; the refit solves the normal
        # equations on S, and an S where it drops an entry or misses the target fails
        S = support(x)
        if not 0 < S.size <= A.shape[0] or (key := S.tobytes()) in tried:
            return None
        tried.add(key)
        A_S, (a, b, c) = A[:, S], spec.weights
        gram = A_S.T @ A_S
        try:
            z = np.linalg.solve(gram, A_S.T @ y)
            r = float(np.linalg.norm(A_S @ z - y))
            if support(z).size < S.size or r > target:
                return None
            g = a * np.sign(z) + (2.0 * b) * z
            if c:
                labels = np.zeros(S.size, np.intp) if spec.partition is None else spec.partition.labels[S]
                g = g + c * z / np.sqrt(np.bincount(labels, z * z))[labels]
            theta = A_S @ np.linalg.solve(gram, g)
        except np.linalg.LinAlgError:
            return None
        xp = np.zeros(A.shape[1])
        xp[S] = z
        dist = subdiff_distance(spec, xp, A.T @ theta)
        return (xp, r, dist) if dist <= opts.kkt_tol * max(1.0, float(np.max(np.abs(g)))) else None

    def solve_at(lam, x0):
        res = solve_lagrangian(Problem(A, y, Lagrangian(lam, "loss")), spec, inner_opts,
                               _ws=ws, x0=x0)
        stages.append((lam, res.residual_l2, res.iterations))
        return res

    # tenfold walk; lo/hi are the last (lam, residual) above/within the target
    lo = (lam0, ynorm) if exact_zero else None
    hi = best = res = cert = None
    k, step = 0, 1
    for _ in range(_MAX_STAGES):
        k += step
        lam = lam0 * 10.0**k
        res = solve_at(lam, None if res is None else res.x_hat)
        if eps == 0.0 and (cert := certify(res.x_hat)):
            break
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
    x, residual, kkt = cert or (inner.x_hat, inner.residual_l2, inner.kkt_residual)
    polished = cert is not None
    if not polished and eps == 0.0 and np.max(np.abs(x)) > 0:
        S, xp = support(x), np.zeros_like(x)
        xp[S] = np.linalg.lstsq(A[:, S], y, rcond=None)[0]
        rp = float(np.linalg.norm(A @ xp - y))
        # scale-relative acceptance so equivariance survives the refit
        if rp <= residual * (1.0 + 1e-9) + 1e-14 * ynorm and \
                penalty_value(spec, xp) <= penalty_value(spec, x) * (1.0 + 1e-9):
            x, residual, polished = xp, rp, True

    check_feasible(residual)
    if eps == 0.0:
        feasible = residual <= feas_slack
        converged = feasible and (inner.converged or polished)
    else:
        feasible = residual <= eps * (1.0 + opts.feas_tol) + 1e-12
        converged = settled(residual) and inner.converged  # an unsettled search is not hidden
    return result(x, residual, kkt, converged, polished, feasible, cert is not None)


def solution_path(problem: Problem, spec: RegularizerSpec, lambda_grid, opts: SolverOptions = None):
    """Solve the Lagrangian program along a strictly monotone multiplier grid.

    Each point is warm-started from the previous one.  A bad grid is refused
    before the first solve; otherwise every point is returned, and any error
    a solve raises propagates.
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
    if not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError("lambda_grid entries must be positive and finite")

    ws = _Workspace(problem.A, problem.y)
    points = []
    warm = None
    for lam in grid:
        res = solve_lagrangian(Problem(problem.A, problem.y, Lagrangian(float(lam), form.side)),
                               spec, opts, _ws=ws, x0=warm)
        warm = res.x_hat
        points.append(PathPoint(float(lam), res))
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
