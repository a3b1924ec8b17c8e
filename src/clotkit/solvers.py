"""Solvers for the penalized and noise-constrained sparse regression programs.

Two problem forms are handled:

* Lagrangian, either ``||y - Az||^2 + lam*R(z)`` (multiplier on the penalty)
  or ``lam*||y - Az||^2 + R(z)`` (multiplier on the loss), solved by an
  active-set Newton route: Newton steps on the support with its signs fixed
  (for a support wider than A has rows, on A's rows with a ridge term, on
  an augmented system with a group term, and along A_S's null space for the
  lasso), the coordinates a step carries across zero dropped, and the zero
  groups that violate optimality added once the support is optimal, started
  by one prox-gradient step of length ``1/||A||_F^2``.  Each round makes one
  gradient evaluation (one forward and one adjoint product; on a large A
  these read only the support's columns and ``Ax``'s nonzero rows).  A route
  that is not certified after ``_ROUTE_ROUNDS`` (1,000) rounds, or whose step
  is not finite, returns its last point as not converged;
* noise-constrained, ``min R(z) s.t. ||Az - y||_2 <= eps``, solved by one
  search on the loss-side multiplier: a tenfold warm-started walk until the
  residual meets the budget, then a safeguarded secant that closes the last
  bracket when ``eps > 0``.  When ``eps = 0`` a normal-equation refit on the
  detected support ends the walk at the first stage whose refit carries an
  exact dual certificate; no other stage is refit.

Every Lagrangian solve is certified by the penalty family's subgradient
distance, before every route round; failure to converge is reported through
the result, not raised.
A solution path starts each point at a secant prediction and the route's entry
rule there: one gradient evaluation (none at zero) and one prox per answer but
the last.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .regularizers import RegularizerSpec, group_norms, penalty_gauge_at_zero, penalty_value, prox, subdiff_distance

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
    """The noise-constrained program has an empty feasible set, as :func:`solve_constrained` judges it."""


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

    @property
    def weights(self):
        """``(loss weight, penalty weight)`` of the objective."""
        return (float(self.lam), 1.0) if self.side == "loss" else (1.0, float(self.lam))


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
        with np.errstate(over="ignore"):  # ||A||_F^2, finite only if every entry is; kept for the workspace
            self._frob2 = float((flat := A.ravel(order="K")) @ flat)
        if not np.isfinite(self._frob2):
            raise ValueError("A contains non-finite entries" if not np.all(np.isfinite(A))
                             else "the squared Frobenius norm of A overflows")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        if not isinstance(self.form, (Lagrangian, Constrained)):
            raise ValueError("form must be Lagrangian or Constrained")
        self.A, self.y = A, y


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances.

    ``kkt_tol`` is relative: a Lagrangian solve stops once the subgradient
    gap falls below ``kkt_tol * max(1, |gradient at the origin|_inf)``.
    ``feas_tol`` is the relative slack of the noise budget, and for
    ``eps > 0`` also the width of the residual window the multiplier search
    aims for.  Both must be positive and finite.
    """

    kkt_tol: float = 1e-8
    feas_tol: float = 1e-6

    def __post_init__(self):
        for name in ("kkt_tol", "feas_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


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
# per-(A, y) data-fit state
# ---------------------------------------------------------------------------

_GATHER_RATIO = 15  # A x, 529x4000, one BLAS thread: 0.03 ms at 3 columns, 0.72 at 250, 0.78 at 280, dense 0.74
_ROW_GATHER_RATIO = 4  # y's rows kept: A^T v over 69 of them 0.25-0.28 ms, over 138 0.51-0.58, dense 0.65-0.81
_GATHER_FLOOR = 50_000  # column gather or kept rows: 4-6 us fixed; dense 49x343: 3-4 us, 121x1000: 13-17 us


class _Workspace:
    """Per-(A, y) state shared across warm-started solves: the half-gradient
    ``A^T(Ax - y)`` of ``||Ax - y||^2``; and ``frob2 = ||A||_F^2``, as the validation of the caller's
    :class:`Problem` computed it, the bound on ``sigma_max(A)^2`` that the active-set route steps by.

    For every shape ``A^T A x`` is a forward and an adjoint product, and ``A_S^T A_S`` a product of the
    support's columns.  Values and residual norms come from ``Ax - y``, which keeps their precision at any
    residual size.  ``Ax`` reads only the
    support's k columns when ``_GATHER_RATIO*k*m + _GATHER_FLOOR <= m*n``.  y's k nonzero rows are
    copied out of A once (``block``) when ``_ROW_GATHER_RATIO*k*n + _GATHER_FLOOR <= m*n``: a
    k-sparse x on DeVore's matrix, with p nonzeros per column, leaves ``Ax`` nonzero in at most k*p
    rows.  ``A^T v`` reads the copy when v is zero off them, and is dense otherwise; over a strict
    subset of them the sum adds exact zeros in another order, which left the studies' reports byte-identical.
    """

    def __init__(self, A, y, frob2):
        if not frob2 > 0.0:
            raise ValueError("A must be nonzero")
        m, n = A.shape
        self.A, self.y, self.n, self.frob2 = A, y, n, frob2
        spare = A.size - _GATHER_FLOOR  # the widest gathers that pay; none does on a small A
        self.max_cols, rows = spare / (_GATHER_RATIO * m), np.flatnonzero(y)
        keep = 0 < rows.size <= spare / (_ROW_GATHER_RATIO * n)
        self.rows, self.block = (rows, A[rows]) if keep else (None, None)
        self.aty = self.adjoint(y)
        self.aty_max = float(abs(self.aty).max())  # ||A^T y||_inf, which scales every solve's tolerance

    def forward(self, x):
        narrow = self.max_cols > 0 and (S := x.nonzero()[0]).size <= self.max_cols
        return self.A[:, S] @ x[S] if narrow else self.A @ x

    def adjoint(self, v):
        if self.rows is not None and np.count_nonzero(v[self.rows]) == np.count_nonzero(v):  # zero off y's rows
            return v[self.rows] @ self.block
        return self.A.T @ v

    def half_grad(self, x):
        return self.adjoint(self.forward(x)) - self.aty

    def sub_gram(self, S):
        """``A_S^T A_S``, a symmetric product of the support's columns."""
        return (A_S := self.A[:, S]).T @ A_S


# ---------------------------------------------------------------------------
# the active-set Newton route
# ---------------------------------------------------------------------------

# rounds of one active-set route, the only iteration cap of a Lagrangian solve.  From zero at a small multiplier
# the route exchanges about one column per round: at 1e-4 of lam_0, 166 rounds on a 200x400 Gaussian and 276
# on the 529x4000 DeVore matrix
_ROUTE_ROUNDS = 1000
_BATCH_FRAC = 0.5  # violators added together: prox steps within this fraction of the largest
_NEWTON_STEPS = 8  # Newton steps of one round when the group term makes the objective non-quadratic
_NULL_RTOL = 1e-10  # a singular Hessian's eigenvalues up to this fraction of its largest are taken as zero


def _labels_width(ws: _Workspace, spec):  # each coordinate's group, and the route's entering budget (no cap on S)
    return (np.zeros(ws.n, np.intp) if spec.partition is None else spec.partition.labels,
            ws.n if spec.weights[1] or not spec.weights[0] else ws.A.shape[0])


def _entering(ws: _Workspace, spec, labels, width, x, hx, threshold, frac):
    """:func:`_route`'s entering coordinates ``new`` at ``x`` (half-gradient ``hx``) and its step ``w``."""
    w = prox(spec, x - hx / ws.frob2, threshold)
    new = ((x == 0.0) & (w != 0.0)).nonzero()[0]
    if new.size > 1:  # a coordinate's own step, or with a = 0, where whole groups enter, its group's
        a, _, c = spec.weights
        mag = abs(w[new]) if a or not c else np.take(group_norms(w, spec.partition), labels[new])
        big = mag >= frac * mag.max()
        # up to the width, then one at a time; a group term past it doubles S's excess, so a support of any
        # width is reached within the route's rounds
        k = width - np.count_nonzero(x)
        new = new[big][np.argsort(-mag[big])[:k if k > 0 else 1 - k if c else 1]]
    return new, w


def _newton_step(hess, rhs, tol, singular):
    """``(d, ray)``: ``hess^-1 rhs``, or where ``hess`` is ``singular`` or ``np.linalg.solve`` finds it so, the
    least-squares step (eigenvalues up to ``_NULL_RTOL`` of the largest taken as zero), unless ``rhs`` has a part
    above ``tol/2`` in their null space: that part is a ray (``ray`` True) on which the objective falls linearly."""
    if not singular:
        try:
            return np.linalg.solve(hess, rhs), False
        except np.linalg.LinAlgError:
            pass
    w, V = np.linalg.eigh(hess)
    null = abs(w) <= _NULL_RTOL * abs(w).max()
    g = V.T @ rhs
    if abs(ray := V[:, null] @ g[null]).max(initial=0.0) > 0.5 * tol:
        return ray, True
    return V[:, ~null] @ (g[~null] / w[~null]), False


def _route(ws: _Workspace, spec, loss_w, pen_w, tol, x, hx, stats):
    """Active-set Newton on ``loss_w*||Ax - y||^2 + pen_w*R(x)`` from ``x``,
    whose half-gradient is ``hx``; the larger weight lies in [1, 2).

    The certificate at ``tol`` is checked before each round, and each round
    costs one gradient evaluation, at its end.  While the support S is not
    known to be optimal, a round takes Newton steps on the objective
    restricted to S and the signs there, where it is smooth:
    ``loss_w*||A_S z - y||^2 + pen_w*(a*s^T z + b*||z||^2 + c*sum_g ||z_g||)``,
    one exact step without the group term.  A step on which a coordinate
    crosses zero (with ``a = 0``, a group turns round) stops at the first
    crossing and drops, with ``a > 0``, every coordinate it flips (a block
    exchange, Kim & Park 2010) until one of them re-enters, and from then
    on only the first crossing (with ``a = 0``, its group).  An S wider than
    A has rows (m) steps by the weights.  A ridge term steps on A's rows, by
    Woodbury's push-through form with ``K = c2*A_S A_S^T + 2*pen_w*b*I``,
    formed once per round and downdated by the columns a crossing drops.  A
    group term solves the augmented system ``[[P, A_S^T], [A_S, -I/c2]]``,
    P the group term's Hessian, with the gradient formed from the residual.
    The lasso's Hessian ``c2*A_S^T A_S`` is singular there, and it moves
    along A_S's null space where the objective falls, to the first zero,
    which it drops (a simplex pivot; Osborne, Presnell & Turlach 2000); so
    does any Hessian that ``np.linalg.solve`` finds singular (duplicate
    columns), or it takes the least-squares step (:func:`_newton_step`).
    Once S is optimal, a round first adds the zero coordinates where one
    prox-gradient step is nonzero (the prox judges each zero group), at that
    step's values: from a nonzero ``x`` all of them, from zero those within
    ``_BATCH_FRAC`` of the largest, and the largest first past
    :func:`_labels_width`'s entering budget (past it, with a group term, as
    many as S has past it).  Once such a batch is dropped whole, all of them,
    and with a group term past the budget too: part of a zero group's
    violators need not descend.  With an l1 term, a group that a crossing
    leaves within rounding of zero leaves whole.

    Returns ``(x, kkt, reason, rounds)``.  ``reason`` is None when the
    certificate passes, else why the route gave up: ``"rounds"`` after
    ``_ROUTE_ROUNDS`` rounds, or ``"singular"`` for a step that is not finite.
    """
    a, b, c = spec.weights
    c2, pc = 2.0 * loss_w, pen_w * c
    pq, pe = math.frexp(pc)  # pc = pq*2^pe, exactly
    labels, width = _labels_width(ws, spec)
    one = spec.partition is None or spec.partition.g == 1
    optimal, frac, block = False, 0.0 if np.count_nonzero(x) else _BATCH_FRAC, bool(a)
    flipped = np.zeros(ws.n, bool)
    m = ws.A.shape[0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for rounds in range(_ROUTE_ROUNDS + 1):
            kkt = subdiff_distance(spec, x, -c2 * hx, pen_w)
            if kkt <= tol or rounds == _ROUTE_ROUNDS:
                return x, kkt, None if kkt <= tol else "rounds", rounds
            xn, new = x.copy(), ()
            if optimal or not np.count_nonzero(x):
                new, w = _entering(ws, spec, labels, width, x, hx, pen_w / (c2 * ws.frob2), frac)
                block = block and not np.count_nonzero(flipped[new])  # a flipped coordinate re-enters: one at a time
                xn[new] = w[new]
            # with a = 0 no sign is fixed: S is every coordinate of a nonzero group, or all of them
            S = (xn if a else np.take(group_norms(xn, spec.partition), labels) if c else np.ones(ws.n)).nonzero()[0]
            z, lab = xn[S], labels[S]
            rows, aug = (wide := S.size > m) and b, wide and c
            if rows:  # a ridge term, so c = 0: quad is K, lin holds s
                h = math.frexp(ws.frob2)[1] // 2  # A_S over 2^h and K over 4^h: no product leaves y's scale
                A_S, lin, r = np.ldexp(ws.A[:, S], -h), np.sign(z), a / (2.0 * b)
                quad = c2 * (A_S @ A_S.T)
            elif aug:  # a group term: the gradient from the residual, and lin the l1 term's
                h, A_S, lin, quad = 0, ws.A[:, S], -(pen_w * a) * np.sign(z), None
            else:
                h, quad = 0, c2 * ws.sub_gram(S)
                lin = c2 * ws.aty[S] - (pen_w * a) * np.sign(z)  # restricted gradient = quad @ z - lin + group term
            if b:
                quad.flat[::len(quad) + 1] += math.ldexp(2.0 * pen_w * b, -2 * h)
            optimal, steps = True, 0
            while S.size and steps < (_NEWTON_STEPS if c else 1):
                if rows:
                    grad = c2 * (ws.y + r * np.ldexp(A_S @ lin, h))
                else:
                    grad = c2 * (A_S.T @ (A_S @ z - ws.y)) - lin if aug else quad @ z - lin
                hess = quad
                if c:
                    norms = group_norms(z, spec.partition, S)  # one norm for one group, which needs no mask
                    u = z / (norms if one else (norms := np.take(norms, lab)))
                    grad += pc * u
                    if abs(grad).max() <= 0.5 * tol:
                        break
                    # P = pc*(diag(1/norms) - u u^T/norms), masked to groups, as pq/(norms*2^-pe): the same bits,
                    # and 1/(norms*2^-pe) is finite where 1/norms overflows, at a subnormal z
                    hess = np.multiply.outer(u, u / (scaled := np.ldexp(norms, -pe)))
                    hess.flat[::S.size + 1] -= 1.0 / scaled
                    hess *= -pq if one else -pq * (lab[:, None] == lab)
                    if aug:
                        hess = np.block([[hess, A_S.T], [A_S, np.diag(np.full(m, -1.0 / c2))]])
                    else:
                        hess += quad
                d, ray = _newton_step(hess, np.r_[grad, np.zeros(m)] if aug else grad, tol, S.size > m and not (b or c))
                stats["route_solves"] += 1
                if rows:  # the step lands on A_S^T K^-1 c2*(y + r*A_S s) - r*s
                    d = z - (np.ldexp(A_S.T @ d, -h) - r * lin)
                d = d[:S.size]  # the augmented system's tail is c2*A_S d
                if not np.isfinite(d).all():
                    return x, kkt, "singular", rounds
                # a coordinate crosses zero, or with a = 0 a group reaches zero where the step turns it round;
                # on a ray every coordinate the step moves toward zero reaches it
                zz, dd = z * ((0.0 if ray else z) - d), d * d
                if not a:
                    zz, dd = np.bincount(lab, zz), np.bincount(lab, dd)
                if (a or c) and np.count_nonzero(cross := (zz <= 0.0) & (dd > 0.0)):  # stop at the first to reach zero
                    ratio = np.where(cross, (z * d if a else np.bincount(lab, z * d)) / dd, np.inf)
                    j = int(ratio.argmin())
                    if block and not ray:
                        flipped[S[cross]] = True
                    else:  # the first alone, or with a = 0 its group
                        cross = (np.arange(S.size) if a else lab) == j
                    keep, z = ~cross, z - ratio[j] * d
                    if a and c:  # a group the stop takes within rounding of zero leaves whole, before it underflows
                        after = group_norms(z, spec.partition, S)
                        keep &= (after if one else np.take(after, lab)) > 2.0**-52 * norms
                    z, S, lab, lin = z[keep], S[keep], lab[keep], lin[keep]
                    if rows:  # K loses the dropped columns
                        quad, A_S = quad - c2 * ((A_D := A_S[:, cross]) @ A_D.T), A_S[:, keep]
                    elif aug:
                        A_S = A_S[:, keep]
                    else:
                        quad = quad[keep][:, keep]
                    continue
                steps += 1
                z = z - d
                if not c or abs(d).max() <= 1e-12 * abs(z).max():
                    break
            else:
                optimal = False
            x = np.zeros(ws.n)
            x[S] = z
            if len(new) and not np.count_nonzero(x[new]):  # the leading violators did not stay on their own:
                frac, width = 0.0, ws.n if c else width  # take them all (a zero group's part may not descend)
            hx = ws.half_grad(x)
            stats["grad_evals"] += 1


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

_MAX_STAGES = 16  # solves of the tenfold walk, and of the secant
_SUPPORT_REL_TOL = 1e-6  # eps = 0 refit support: |x_i| above this times max|x|


def support(x) -> np.ndarray:
    """Indices of the entries of ``x`` above ``1e-6`` times its largest magnitude."""
    return np.flatnonzero(np.abs(x) > _SUPPORT_REL_TOL * np.max(np.abs(x), initial=0.0))


def solve_lagrangian(problem: Problem, spec: RegularizerSpec, opts: SolverOptions = None,
                     _ws: _Workspace = None, *, x0=None) -> SolveResult:
    """Solve the multiplier form of the program given by ``problem.form``,
    starting from ``x0`` (zero by default; else a finite vector of length n).

    The active-set route (:func:`_route`) solves the objective over ``2^e``, exactly, with e chosen so that
    the larger weight lies in [1, 2): the tolerance and the steps stay in the float range at any multiplier.
    ``kkt_residual`` is its subgradient check times ``2^e``; a give-up, or a gap past the float range in the
    caller's units, sets ``converged=False`` instead of raising.  ``iterations`` counts the route's rounds, at
    most 1,000 (one gradient evaluation each); ``info`` counts its ``route_solves`` (linear solves) and names its
    ``route_give_up``: None when the route certified the solve, else ``"rounds"`` or ``"singular"``.
    ``grad_evals`` counts the gradient evaluations (forward-plus-adjoint pairs), one at the start only from a
    nonzero ``x0``.  A multiplier at which the route's first prox threshold rounds to 0, so that no coordinate
    could move, is refused.
    """
    opts = opts or SolverOptions()
    form = problem.form
    if not isinstance(form, Lagrangian):
        raise ValueError("solve_lagrangian needs a Lagrangian-form problem")
    n = problem.A.shape[1]
    spec.check_dimension(n)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,) or not np.isfinite(x).all():
        raise ValueError(f"x0 must be a finite 1-D vector of length {n}, got shape {x.shape}")
    ws = _ws or _Workspace(problem.A, problem.y, problem._frob2)
    loss_w, pen_w = form.weights
    e = math.frexp(max(loss_w, pen_w))[1] - 1  # the objective over 2^e, exactly: the larger weight in [1, 2)
    lw, pw = math.ldexp(loss_w, -e), math.ldexp(pen_w, -e)
    if not pw / (2.0 * lw * ws.frob2) > 0.0:  # the route's prox threshold at its step
        raise ValueError(f"lam={form.lam!r} rounds the prox threshold of this problem to 0")
    tol = opts.kkt_tol * max(2.0**-e, 2.0 * lw * ws.aty_max)
    warm = bool(x.any())  # at zero the half-gradient is -A^T y, which costs no product
    stats = {"grad_evals": int(warm), "route_solves": 0}
    hx = ws.half_grad(x) if warm else -ws.aty
    x, kkt, stats["route_give_up"], rounds = _route(ws, spec, lw, pw, tol, x, hx, stats)
    kkt, r = kkt * 2.0**e, ws.forward(x) - ws.y  # the gap in the caller's units; past the float range it is inf
    return SolveResult(x, loss_w * float(r @ r) + pen_w * penalty_value(spec, x), group_norms(r), rounds, kkt,
                       stats["route_give_up"] is None and kkt < math.inf,  # an inf gap certifies nothing
                       {"form": "lagrangian", "lambda": form.lam, "side": form.side, **stats})


def solve_constrained(problem: Problem, spec: RegularizerSpec, opts: SolverOptions = None) -> SolveResult:
    """Minimize the penalty subject to ``||Az - y||_2 <= eps``.

    One search on the loss-side multiplier ``lam`` of
    ``lam*||Az - y||^2 + R(z)``, whose residual falls as ``lam`` grows.  From
    the zero-solution threshold, ``lam`` grows tenfold per warm-started solve
    until the residual meets the target: ``eps``, or ``1e-9*||y||`` when
    ``eps = 0``.  A penalty with no exact zero solution (ridge) whose first
    solve is already inside the budget walks ``lam`` down instead.  ``lam`` is
    capped at the largest float, and a stage there that misses the target ends the walk.

    ``eps > 0``: an Illinois-safeguarded secant on ``(log lam, log residual)``
    closes the last bracket and stops once the residual is within
    ``feas_tol`` of ``eps``, relatively.  The inner solves run at
    ``kkt_tol * eps/||y||``: the certificate is relative to the gradient at
    the origin, which scales with ``||y||``, while the window is relative to
    ``eps``.  The window is two-sided because even so an inner
    solve pins the residual down only to about 1e-7 relative, so a one-sided
    window can be stepped over.  A search that ends outside the window
    reports ``converged=False``.
    ``eps = 0``: the walk ends at the first stage whose normal-equation refit z
    on its :func:`support` S (at most A's row count wide) keeps S, meets the target and passes
    Fuchs's certificate: ``theta = A_S (A_S^T A_S)^{-1} grad R_S(z)`` with
    ``subdiff_distance(spec, z, A^T theta) <= kkt_tol*max(1, |grad R_S|_inf)``.
    That z is returned, with the distance as ``kkt_residual``.  Otherwise the
    last inner solve is returned as solved, with its own ``kkt_residual``.

    ``info["stages"]`` lists one ``(lam, residual, iterations)`` entry per
    inner solve, and ``info["inner_solves"]`` counts them; ``info["certified"]``
    says whether the answer carries Fuchs's certificate (zero carries ``theta = 0``).
    A penalty homogeneous of degree p (1 without a ridge term, 2 for ridge alone) is solved on
    ``(y*2^-e, eps*2^-e)``, e the binary exponent of ``max|y|``; x and the residuals map back by
    ``2^e``, the objective by ``2^(p*e)`` and the multipliers by ``2^((p-2)*e)``, all exactly.
    The mixed elastic net is not homogeneous and is solved as given.

    Feasibility is judged where the walk's residual stops falling (by less than ``feas_tol``, relatively)
    before any stage meets the target, and after the search: a residual above ``eps + feas_tol*||y||``
    leads to one least-squares solve on A, and ``InfeasibleError`` when that residual is above it too.
    """
    opts = opts or SolverOptions()
    form = problem.form
    if not isinstance(form, Constrained):
        raise ValueError("solve_constrained needs a Constrained-form problem")
    A, eps, (a, b, c) = problem.A, form.eps, spec.weights
    spec.check_dimension(A.shape[1])
    # R of degree p: x(2^e y, 2^e eps) = 2^e x(y, eps), R by 2^(pe), lam by 2^((p-2)e); the mixed EN has no p
    p = 1 if not b else 0 if a or c else 2
    e = math.frexp(np.abs(problem.y).max(initial=0.0))[1] if p else 0
    y, eps = np.ldexp(problem.y, -e), math.ldexp(eps, -e)
    ynorm = group_norms(y)
    feas_slack = opts.feas_tol * ynorm

    stages = []

    def result(x, residual, kkt, converged, feasible, certified):  # every return, in the caller's units
        with np.errstate(over="ignore"):  # a value past the float range, such as a tiny y's multiplier, is inf
            info = {"form": "constrained", "eps": form.eps, "inner_solves": len(stages),
                    "stages": [(np.ldexp(lam, (p - 2) * e), np.ldexp(r, e), it) for lam, r, it in stages],
                    "feasible": feasible, "certified": certified}
            return SolveResult(np.ldexp(x, e), np.ldexp(penalty_value(spec, x), p * e), np.ldexp(residual, e),
                               sum(s[2] for s in stages), kkt, bool(converged), info)

    if ynorm <= eps:  # zero is optimal, certified by theta = 0
        return result(np.zeros(A.shape[1]), ynorm, 0.0, converged=True, feasible=True, certified=True)

    @cache
    def least_residual():  # least squares attains the least residual of any z; solved once
        return group_norms(A @ np.linalg.lstsq(A, y, rcond=None)[0] - y)

    def check_feasible(residual):
        if residual > eps + feas_slack and (r_min := least_residual()) > eps + feas_slack:
            raise InfeasibleError(f"least-squares residual {math.ldexp(r_min, e):.6g} exceeds the noise budget "
                                  f"eps={form.eps:.6g}")

    if not problem._frob2 > 0.0:  # a zero A leaves the residual at ||y|| for every z; the workspace refuses it
        check_feasible(ynorm)
    ws = _Workspace(A, y, problem._frob2)
    gauge = penalty_gauge_at_zero(spec, ws.aty)
    exact_zero = np.isfinite(gauge) and gauge > 0
    lam0 = min(0.5 / (gauge if exact_zero else max(ws.aty_max, 1e-12)), float(np.finfo(float).max))
    target = eps if eps > 0 else 1e-9 * ynorm  # relative, so eps = 0 is scale-equivariant
    inner_opts = replace(opts, kkt_tol=opts.kkt_tol * eps / ynorm) if eps > 0 else opts

    def certify(x):
        # (refit, residual, dual distance) when certified; the refit solves the normal
        # equations on S, and an S where it drops an entry or misses the target fails
        S = support(x)
        if not 0 < S.size <= A.shape[0]:
            return None
        A_S = A[:, S]
        try:
            z = np.linalg.solve(gram := A_S.T @ A_S, A_S.T @ y)
            r = group_norms(A_S @ z - y)
            if support(z).size < S.size or r > target:
                return None
            labels = np.zeros(S.size, np.intp) if spec.partition is None else spec.partition.labels[S]
            # c = 0 skips the group term and its norms
            g = a * np.sign(z) + (2.0 * b) * z + (c and c * z / np.take(group_norms(z, spec.partition, S), labels))
            theta = A_S @ np.linalg.solve(gram, g)
        except np.linalg.LinAlgError:
            return None
        xp = np.zeros(A.shape[1])
        xp[S] = z
        dist = subdiff_distance(spec, xp, ws.adjoint(theta))
        return (xp, r, dist) if dist <= opts.kkt_tol * max(1.0, float(np.max(np.abs(g)))) else None

    def solve_at(lam, x0):
        stage = copy.copy(problem)  # validated once, as the caller's problem; only y's scale and the form differ
        stage.y, stage.form = y, Lagrangian(lam, "loss")
        res = solve_lagrangian(stage, spec, inner_opts, _ws=ws, x0=x0)
        stages.append((lam, res.residual_l2, res.iterations))
        return res

    # tenfold walk; lo/hi are the last (lam, residual) above/within the target
    lo = (lam0, ynorm) if exact_zero else None
    hi = best = res = cert = None
    k, step, r_prev = 0, 1, ynorm
    for _ in range(_MAX_STAGES):
        k += step
        lam = min(lam0 * 10.0**k, float(np.finfo(float).max))  # Lagrangian refuses an infinite multiplier
        res = solve_at(lam, None if res is None else res.x_hat)
        if hi is None and res.residual_l2 > r_prev * (1.0 - opts.feas_tol):
            check_feasible(res.residual_l2)  # the residual stopped falling short of the budget
        r_prev = res.residual_l2
        if eps == 0.0 and (cert := certify(res.x_hat)):
            break
        if res.residual_l2 <= target:
            hi, best = (lam, res.residual_l2), res
            if lo is not None or eps == 0.0:
                break
            step = -1  # no exact zero solution below: walk down to bracket the budget
        else:
            lo = (lam, res.residual_l2)
            if hi is not None or lam == np.finfo(float).max:  # no larger multiplier to try
                break

    def settled(r):
        return abs(r - eps) <= opts.feas_tol * eps

    if eps > 0 and lo is not None and hi is not None and not settled(hi[1]):
        # Illinois secant on f(t) = log(residual / eps), t = log(lam)
        t_lo, f_lo = math.log(lo[0]), math.log(lo[1] / eps)
        t_hi, f_hi = math.log(hi[0]), math.log(max(hi[1] / eps, 1e-300))
        side = 0
        for _ in range(_MAX_STAGES):
            t = t_hi - f_hi * (t_hi - t_lo) / (f_hi - f_lo)
            res = solve_at(math.exp(t), res.x_hat)
            if settled(res.residual_l2):
                best = res
                break
            f = math.log(max(res.residual_l2 / eps, 1e-300))
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
    check_feasible(residual)
    if eps == 0.0:
        feasible = residual <= feas_slack
        converged = feasible and (inner.converged or cert is not None)
    else:
        feasible = residual <= eps * (1.0 + opts.feas_tol)
        converged = settled(residual) and inner.converged  # an unsettled search is not hidden
    return result(x, residual, kkt, converged, feasible, cert is not None)


def solution_path(problem: Problem, spec: RegularizerSpec, lambda_grid, opts: SolverOptions = None):
    """Solve the Lagrangian program along a strictly monotone multiplier grid.

    Each point starts at :func:`_predict`'s secant and entering set, and the route corrects from there at
    the usual certificate.  Outside its solves the path takes, per answer but the last, one gradient
    evaluation (a forward and an adjoint product; none at zero) and one prox.  A bad grid is refused
    before the first solve; otherwise every point is returned, and any error a solve raises propagates.
    """
    opts = opts or SolverOptions()
    form = problem.form
    if not isinstance(form, Lagrangian):
        raise ValueError("solution_path needs a Lagrangian-form template problem")
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda_grid must be a nonempty 1-D sequence")
    diffs = np.diff(grid)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("lambda_grid must be strictly monotone")
    if not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError("lambda_grid entries must be positive and finite")

    ws = _Workspace(problem.A, problem.y, problem._frob2)
    forms = [Lagrangian(float(lam), form.side) for lam in grid]
    points, warm, last = [], None, None
    for k, point_form in enumerate(forms):
        point = copy.copy(problem)  # validated once, as the caller's problem; only the form differs
        point.form = point_form
        res = solve_lagrangian(point, spec, opts, _ws=ws, x0=warm)
        points.append(PathPoint(point_form.lam, res))
        if k + 1 < len(forms):
            here = (point_form, res.x_hat)
            warm, last = _predict(ws, spec, forms[k + 1], here, last), here
    return points


def _predict(ws: _Workspace, spec, nxt: Lagrangian, here, last):
    """A path's start at ``nxt`` from the answers before it, each ``(form, x)``: the secant through ``last``
    and ``here`` in penalty over loss weight, on which a lasso path is piecewise linear (Efron et al.
    2004), or ``here`` alone, zero where it crosses zero; then every violator of the route's entry rule at
    ``nxt``, on the secant's half-gradient, a strong rule (Tibshirani et al. 2012).  A prediction that is
    not finite, or a prox threshold that is not positive and finite, leaves the start at ``here``'s x."""
    (form, x), (loss_w, pen_w) = here, nxt.weights
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xp = x.copy()
        if last is not None:
            t0, t1, t2 = (f.weights[1] / f.weights[0] for f in (last[0], form, nxt))
            xp = x + (t2 - t1) / (t1 - t0) * (x - last[1])
        gp = ws.half_grad(xp) if xp.any() else -ws.aty  # affine in x: the secant of the answers' half-gradients
        xp[np.sign(xp) != np.sign(x)] = 0.0
        threshold = pen_w / (2.0 * loss_w * ws.frob2)
        if not (np.isfinite(xp - gp / ws.frob2).all() and 0.0 < threshold < math.inf):
            return x
    new, w = _entering(ws, spec, *_labels_width(ws, spec), xp, gp, threshold, 0.0)
    xp[new] = w[new]
    return xp


# ---------------------------------------------------------------------------
# zero-solution thresholds
# ---------------------------------------------------------------------------


def lambda_zero_threshold(spec: RegularizerSpec, A, y, side: str = "penalty") -> float:
    """Multiplier level at which the zero vector becomes optimal.

    Penalty side: zero is optimal for all ``lam`` at or above the returned
    value.  Loss side: zero is optimal for all ``lam`` at or below it.
    """
    gauge = penalty_gauge_at_zero(spec, np.asarray(A).T @ np.asarray(y))
    if side == "penalty":
        return 2.0 * gauge
    if side == "loss":  # a gauge of infinity (no exact zero solution) gives 0
        return 1.0 / (2.0 * gauge) if gauge else np.inf
    raise ValueError(f"side must be 'penalty' or 'loss', got {side!r}")
