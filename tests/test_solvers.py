import dataclasses
import functools
import math
import sys

import numpy as np
import pytest

from clotkit import experiments
from clotkit.grouping import preprocess
from clotkit.kkt import kkt_residual
from clotkit.matrices import DeVoreParams, devore_matrix, fixture_matrix
from clotkit.regularizers import (Partition, RegularizerSpec, group_norms, penalty_gauge_at_zero, penalty_value,
                                  prox)
from clotkit import solvers
from clotkit.solvers import (
    Constrained,
    InfeasibleError,
    Lagrangian,
    Problem,
    SolverOptions,
    lambda_zero_threshold,
    solution_path,
    solve_constrained,
    solve_lagrangian,
)

from oracles import scalar_lasso_scan

TIGHT = SolverOptions(kkt_tol=1e-10)
FAMILY = [RegularizerSpec.lasso(), RegularizerSpec.ridge(), RegularizerSpec.elastic_net(0.5),
          RegularizerSpec.clot(0.3), RegularizerSpec.group_lasso(Partition.contiguous([5] * 6)),
          RegularizerSpec.sparse_group_lasso(0.4, Partition.contiguous([5] * 6))]


def small_instance(rng, m=12, n=20, k=3, noise=0.0):
    A = fixture_matrix("gaussian", m, n, seed=int(rng.integers(0, 2**31)))
    x = np.zeros(n)
    sup = rng.choice(n, size=k, replace=False)
    x[sup] = rng.standard_normal(k) * 2
    y = A @ x + noise * rng.standard_normal(m)
    return A, x, y


def twin_instance():
    """C6's duplicated-column fixture and a lasso multiplier at which both twins
    are nonzero: the route's Hessian is singular there, so it takes a least-squares step."""
    A = fixture_matrix("gaussian", 40, 5, seed=17)
    A[:, 1] = A[:, 0]
    y = A @ np.array([1.0, 1.0, -0.5, 0.0, 0.3]) + 0.05 * np.random.default_rng(17).standard_normal(40)
    pre = preprocess(A, y)
    return pre.A, pre.y, 0.05 * lambda_zero_threshold(RegularizerSpec.lasso(), pre.A, pre.y)


def fista_reference(A, y, spec, lam, tol, x0):
    """A second solver for the route's answers: FISTA (Beck & Teboulle 2009) on ``||y - Ax||^2 + lam*R(x)`` at the
    fixed step ``1/(2*sigma_max(A)^2)``, its momentum reset where it points uphill (O'Donoghue & Candes 2015),
    until the certificate passes at ``tol``.  It shares only ``prox`` and ``kkt_residual`` with the package."""
    step = 0.5 / np.linalg.norm(A, 2) ** 2
    x = z = np.asarray(x0, dtype=float)
    t = 1.0
    for k in range(1, 100_001):
        w = prox(spec, z - 2.0 * step * (A.T @ (A @ z - y)), step * lam)
        if (z - w) @ (w - x) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z, x, t = w + (t - 1.0) / t_next * (w - x), w, t_next
        if k % 10 == 0 and kkt_residual(A, y, x, spec, lam) <= tol:
            return x
    raise AssertionError(f"the reference did not pass the certificate at {tol} in {k} iterations")


def cert_tol(A, y, kkt_tol):
    """The tolerance a penalty-side Lagrangian solve certifies its answer at."""
    return kkt_tol * max(1.0, 2.0 * float(np.max(np.abs(A.T @ y))))


class ProductSpy(np.ndarray):
    """A view of A that records the column count of every forward matrix-vector product
    that it, or a matrix of some of its columns, is the left factor of (``widths``), and the
    row count of every adjoint one, ``A.T @ v`` or ``v @ B`` with B some of A's rows (``heights``),
    and the row count of every copy ``A[R]`` of some of its rows (``gathers``)."""

    def __array_finalize__(self, obj):
        self.full, self.widths, self.heights, self.gathers = (
            getattr(obj, a, None) for a in ("full", "widths", "heights", "gathers"))

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and self.shape == self.full:
            self.gathers.append(len(key))
        return super().__getitem__(key)

    def __matmul__(self, other):
        if np.ndim(other) == 1 and self.ndim == 2 and self.shape[0] == self.full[0]:  # not an adjoint
            self.widths.append(self.shape[1])
        elif np.ndim(other) == 1 and self.shape == self.full[::-1]:  # the whole transpose
            self.heights.append(self.full[0])
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        if np.ndim(other) == 1 and self.ndim == 2 and self.shape[1] == self.full[1]:
            self.heights.append(self.shape[0])
        return np.asarray(other) @ np.asarray(self)


def product_spy(A):
    """A :class:`ProductSpy` of A with nothing recorded yet."""
    spy = A.view(ProductSpy)
    spy.full, spy.widths, spy.heights, spy.gathers = A.shape, [], [], []
    return spy


def workspace(A, y):
    """A workspace on (A, y) with ``||A||_F^2`` as a problem's validation computes it."""
    return solvers._Workspace(A, y, Problem(A, y, Lagrangian(1.0))._frob2)


def spied_workspaces(monkeypatch):
    """Make every workspace multiply through a spy, its own adjoint ``aty`` included; return the spies."""
    spies = []

    class Spied(solvers._Workspace):
        def __init__(self, A, y, frob2):
            spies.append(product_spy(A))
            super().__init__(spies[-1], y, frob2)

    monkeypatch.setattr(solvers, "_Workspace", Spied)
    return spies


@functools.cache
def scaling_instance():
    """The scaling study's 529 x 4000 DeVore matrix (23 nonzeros per column) and a 3-sparse truth,
    so that y = A x is nonzero in at most 69 rows: both gathers pay there."""
    A = devore_matrix(DeVoreParams(23, 2, 4000), normalize=False)
    x = np.zeros(A.shape[1])
    x[np.random.default_rng(99).choice(A.shape[1], 3, replace=False)] = (0.8147, 0.9058, 0.1270)
    A.flags.writeable = x.flags.writeable = False
    return A, x


class TestProblemValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Problem(np.eye(3), np.ones(2), Lagrangian(1.0))

    def test_non_finite_entries(self):
        A = np.eye(2)
        for value in (np.nan, np.inf, -np.inf):
            bad = A.copy()
            bad[0, 0] = value
            with pytest.raises(ValueError, match="^A contains non-finite entries$"):
                Problem(bad, np.ones(2), Lagrangian(1.0))
        # every entry finite, but ||A||_F^2 is not: each solve would fail at a zero step
        with pytest.raises(ValueError, match="^the squared Frobenius norm of A overflows$"):
            Problem(fixture_matrix("gaussian", 30, 60, seed=1) * 1e160, np.ones(30), Lagrangian(1.0))
        with pytest.raises(ValueError):
            Problem(A, np.array([np.inf, 0.0]), Lagrangian(1.0))

    def test_bad_form_params(self):
        with pytest.raises(ValueError):
            Lagrangian(0.0)
        with pytest.raises(ValueError):
            Lagrangian(1.0, side="dual")
        with pytest.raises(ValueError):
            Constrained(-1.0)

    @pytest.mark.parametrize("A, y, form, match", [
        (np.ones(3), np.ones(3), Lagrangian(1.0), "A must be a 2-D matrix"),
        (np.eye(3), np.ones((3, 1)), Lagrangian(1.0), "y must be a 1-D vector"),
        (np.eye(2), np.ones(2), 1.0, "form must be Lagrangian or Constrained"),
    ], ids=["1d_matrix", "2d_rhs", "no_form"])
    def test_malformed_problem_is_refused(self, A, y, form, match):
        with pytest.raises(ValueError, match=match):
            Problem(A, y, form)

    @pytest.mark.parametrize("solve, form", [
        (solve_lagrangian, Constrained(0.0)),
        (solve_constrained, Lagrangian(1.0)),
        (lambda problem, spec: solution_path(problem, spec, [1.0]), Constrained(0.0)),
    ], ids=["lagrangian", "constrained", "path"])
    def test_solver_refuses_the_other_form(self, solve, form):
        with pytest.raises(ValueError, match="needs a"):
            solve(Problem(np.eye(2), np.ones(2), form), RegularizerSpec.lasso())

    @pytest.mark.parametrize("check", [
        lambda: lambda_zero_threshold(RegularizerSpec.lasso(), np.eye(2), np.ones(2), side="dual"),
        lambda: kkt_residual(np.eye(2), np.ones(2), np.zeros(2), RegularizerSpec.lasso(), 1.0, side="dual"),
    ], ids=["lambda_zero_threshold", "kkt_residual"])
    def test_unknown_side_is_refused(self, check):
        with pytest.raises(ValueError, match="side must be 'penalty' or 'loss'"):
            check()

    @pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("side", ["penalty", "loss"])
    def test_kkt_residual_refuses_a_bad_multiplier(self, lam, side):
        # lam = -1 gave 3.0 and NaN gave NaN
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            kkt_residual(np.eye(4), np.ones(4), np.zeros(4), RegularizerSpec.lasso(), lam, side)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_lagrangian(Problem(np.zeros((2, 2)), np.ones(2), Lagrangian(1.0)),
                             RegularizerSpec.lasso())

    @pytest.mark.parametrize("x0", [np.ones(5), np.ones((6, 1)), np.full(6, np.nan), np.r_[np.ones(5), np.inf],
                                    np.ones(7), np.float64(1.0)],
                             ids=["short", "column", "nan", "inf", "long", "scalar"])
    def test_bad_warm_start_is_refused(self, x0):
        A = fixture_matrix("gaussian", 10, 6, seed=0)
        prob = Problem(A, A @ np.arange(6.0), Lagrangian(0.1))
        with pytest.raises(ValueError, match="^x0 must be a finite 1-D vector of length 6"):
            solve_lagrangian(prob, RegularizerSpec.lasso(), x0=x0)
        assert solve_lagrangian(prob, RegularizerSpec.lasso(), x0=[0.0, 1, 2, 3, 4, 5]).converged


class TestLagrangian:
    def test_identity_l1_matches_scan_oracle(self):
        y = np.array([1.0, -0.2])
        res = solve_lagrangian(Problem(np.eye(2), y, Lagrangian(0.3, "penalty")),
                               RegularizerSpec.lasso(), TIGHT)
        expected = [scalar_lasso_scan(v, 0.3) for v in y]  # = soft(y, lam/2)
        np.testing.assert_allclose(expected, [0.85, -0.05], atol=1e-4)
        np.testing.assert_allclose(res.x_hat, [0.85, -0.05], atol=1e-9)
        assert res.converged

    def test_zero_above_threshold(self, rng):
        A, _, y = small_instance(rng)
        part = Partition.contiguous([10, 10])
        for spec in (RegularizerSpec.lasso(), RegularizerSpec.elastic_net(0.5),
                     RegularizerSpec.clot(0.3), RegularizerSpec.group_lasso(part),
                     RegularizerSpec.sparse_group_lasso(0.5, part)):
            lam_max = lambda_zero_threshold(spec, A, y, "penalty")
            res = solve_lagrangian(Problem(A, y, Lagrangian(lam_max * 1.000001, "penalty")), spec, TIGHT)
            assert np.all(res.x_hat == 0.0)
            assert res.converged
            # the threshold is tight: just below it the solution is nonzero
            res = solve_lagrangian(Problem(A, y, Lagrangian(lam_max * 0.99, "penalty")), spec, TIGHT)
            assert np.any(res.x_hat != 0.0), spec.label()
            assert res.converged

    def test_l1_threshold_formula(self, rng):
        A, _, y = small_instance(rng)
        assert lambda_zero_threshold(RegularizerSpec.lasso(), A, y) == pytest.approx(
            2.0 * np.max(np.abs(A.T @ y)), rel=1e-12)
        assert penalty_gauge_at_zero(RegularizerSpec.ridge(), A.T @ y) == np.inf

    def test_loss_side_threshold(self, rng):
        A, _, y = small_instance(rng)
        sgl = RegularizerSpec.sparse_group_lasso(0.4, Partition.contiguous([10, 10]))
        for spec in (RegularizerSpec.lasso(), RegularizerSpec.clot(0.3), sgl):
            lam_loss = lambda_zero_threshold(spec, A, y, "loss")
            assert lam_loss * lambda_zero_threshold(spec, A, y, "penalty") == pytest.approx(1.0, rel=1e-12)
            # loss side: zero is optimal at or below the threshold, and only there
            res = solve_lagrangian(Problem(A, y, Lagrangian(lam_loss * 0.999999, "loss")), spec, TIGHT)
            assert np.all(res.x_hat == 0.0) and res.converged, spec.label()
            res = solve_lagrangian(Problem(A, y, Lagrangian(lam_loss * 1.01, "loss")), spec, TIGHT)
            assert np.any(res.x_hat != 0.0) and res.converged, spec.label()
        assert lambda_zero_threshold(RegularizerSpec.ridge(), A, y, "loss") == 0.0
        # A.T @ y = 0: zero is optimal at every multiplier
        assert lambda_zero_threshold(RegularizerSpec.lasso(), A, np.zeros_like(y), "loss") == np.inf

    def test_loss_side_equivalent_to_penalty_side(self, rng):
        A, _, y = small_instance(rng, noise=0.1)
        lam = 0.05
        spec = RegularizerSpec.clot(0.4)
        a = solve_lagrangian(Problem(A, y, Lagrangian(lam, "penalty")), spec, TIGHT)
        b = solve_lagrangian(Problem(A, y, Lagrangian(1.0 / lam, "loss")), spec, TIGHT)
        np.testing.assert_allclose(a.x_hat, b.x_hat, atol=1e-7)

    def test_kkt_certified_independently(self, rng):
        A, _, y = small_instance(rng, noise=0.2)
        part = Partition.contiguous([5, 15])
        opts = SolverOptions(kkt_tol=1e-9)
        for spec in (RegularizerSpec.lasso(), RegularizerSpec.elastic_net(0.6),
                     RegularizerSpec.clot(0.5), RegularizerSpec.sparse_group_lasso(0.4, part),
                     RegularizerSpec.ridge()):
            res = solve_lagrangian(Problem(A, y, Lagrangian(0.1, "penalty")), spec, opts)
            assert res.converged, spec.label()
            gap = kkt_residual(A, y, res.x_hat, spec, 0.1, "penalty")
            scale = max(1.0, 2.0 * np.max(np.abs(A.T @ y)))
            assert gap <= 1e-9 * scale

    def test_objective_recompute_and_candidates(self, rng):
        A, x_true, y = small_instance(rng, noise=0.05)
        spec = RegularizerSpec.clot(0.3)
        lam = 0.02
        res = solve_lagrangian(Problem(A, y, Lagrangian(lam, "penalty")), spec, TIGHT)
        recomputed = float(np.sum((A @ res.x_hat - y) ** 2)) + lam * penalty_value(spec, res.x_hat)
        assert res.objective == pytest.approx(recomputed, rel=1e-10)
        obj_zero = float(y @ y)
        obj_true = float(np.sum((A @ x_true - y) ** 2)) + lam * penalty_value(spec, x_true)
        assert res.objective <= obj_zero + 1e-9 * obj_zero
        assert res.objective <= obj_true + 1e-9 * obj_true

    def test_nonconvergence_is_reported_not_raised(self, rng, monkeypatch):
        monkeypatch.setattr(solvers, "_ROUTE_ROUNDS", 5)
        A, _, y = small_instance(rng, noise=0.3)
        res = solve_lagrangian(Problem(A, y, Lagrangian(1e-6, "penalty")),
                               RegularizerSpec.lasso(),
                               SolverOptions(kkt_tol=1e-14))
        assert not res.converged
        assert np.isfinite(res.kkt_residual)

    def test_warm_start_at_solution_needs_no_iterations(self):
        A, y, lam = twin_instance()  # the cold solve takes least-squares steps
        prob = Problem(A, y, Lagrangian(lam))
        spec = RegularizerSpec.lasso()
        cold = solve_lagrangian(prob, spec, TIGHT)
        warm = solve_lagrangian(prob, spec, TIGHT, x0=cold.x_hat)
        assert warm.iterations == 0
        np.testing.assert_array_equal(warm.x_hat, cold.x_hat)


class TestSolveStats:
    def test_gradient_evaluations_are_accounted_for(self, rng, monkeypatch):
        A, _, y = small_instance(rng, noise=0.1)
        twins = twin_instance()
        # (A, y, lam, spec, route rounds, x0): the route from zero, on the twins' singular Hessian, cut
        # off after one round, and from a nonzero warm start
        cases = [(A, y, 0.05, RegularizerSpec.lasso(), 32, None),
                 (A, y, 0.05, RegularizerSpec.clot(0.3), 32, None),
                 (*twins, RegularizerSpec.lasso(), 32, None), (A, y, 0.05, RegularizerSpec.clot(0.3), 1, None),
                 (A, y, 0.05, RegularizerSpec.clot(0.3), 32, np.eye(A.shape[1])[0])]
        work = []
        for A, y, lam, spec, rounds, x0 in cases:
            monkeypatch.setattr(solvers, "_ROUTE_ROUNDS", rounds)
            ws = workspace(A, y)
            products, half_grad = [], ws.half_grad
            ws.half_grad = lambda x: products.append(1) or half_grad(x)
            res = solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec, TIGHT, ws, x0=x0)
            info = res.info
            assert res.converged == (rounds > 1)
            assert all(type(k) is int for k in (res.iterations, info["grad_evals"], info["route_solves"]))
            # one gradient evaluation at a nonzero start (at zero it is -A^T y), then one per route round
            assert info["grad_evals"] == (x0 is not None) + res.iterations
            assert len(products) == info["grad_evals"]  # every product made is counted
            work.append(res.iterations)
        assert all(work) and work[3] == 1


class TestWorkspace:
    """Per-(A, y) state: the route steps by ||A||_F^2, and products read only the parts of A they need."""

    def test_route_step_bound_is_above_sigma2(self):
        for A in (fixture_matrix("gaussian", 30, 40, seed=11),
                  fixture_matrix("gaussian", 30, 20, seed=3) * np.logspace(0, -2, 20),
                  np.asfortranarray(fixture_matrix("gaussian", 30, 40, seed=12)),
                  fixture_matrix("gaussian", 30, 80, seed=13)[:, ::2]):  # laid out by column, and strided
            ws = workspace(A, np.ones(30))
            assert ws.frob2 == pytest.approx(np.linalg.norm(A, "fro") ** 2, rel=1e-12)
            assert ws.frob2 >= np.linalg.norm(A, 2) ** 2

    def test_zero_matrix_is_refused_as_before(self):
        A, y, lasso = np.zeros((3, 2)), np.ones(3), RegularizerSpec.lasso()
        slack = Constrained(np.linalg.norm(y / 10) * (1 - 5e-7))  # ||y|| above eps, within feas_tol*||y||
        for solve in (lambda: solve_lagrangian(Problem(A, y, Lagrangian(1.0)), lasso),
                      lambda: solution_path(Problem(A, y, Lagrangian(1.0)), lasso, [1.0]),
                      lambda: solve_constrained(Problem(A, y / 10, slack), lasso)):
            with pytest.raises(ValueError, match="^A must be nonzero$") as raised:
                solve()
            assert not isinstance(raised.value, InfeasibleError)
        with pytest.raises(InfeasibleError, match="^least-squares residual"):
            solve_constrained(Problem(A, y, Constrained(0.5)), lasso)

    # "gram" is the near-square shape a precomputed A^T A once served; both now take the column product
    @pytest.mark.parametrize("A, shape", [
        (fixture_matrix("gaussian", 30, 36, seed=5), (30, 36)), (devore_matrix(DeVoreParams(5, 2)), (25, 125))],
        ids=["gram", "direct"])
    def test_sub_gram_is_the_support_gram(self, A, shape):
        ws = workspace(A, np.ones(A.shape[0]))
        assert A.shape == shape
        for S in (np.array([], np.intp), np.array([7]), np.array([0, 3, 11, 20, 35])):
            got, ref = ws.sub_gram(S), A[:, S].T @ A[:, S]
            assert got.shape == (S.size, S.size)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("m, n", [(50, 40), (30, 36), (600, 1000)], ids=["50x40", "30x36", "600x1000"])
    def test_workspace_holds_no_n_by_n_array(self, m, n):
        # no shape precomputes A^T A: every product reads A or its columns and rows, a solve included
        A = fixture_matrix("gaussian", m, n, seed=0)
        spec, y = RegularizerSpec.clot(0.2), A[:, :3] @ np.array([1.0, -2.0, 0.5])
        ws = workspace(A, y)
        res = solve_lagrangian(Problem(A, y, Lagrangian(0.1 * lambda_zero_threshold(spec, A, y))), spec, _ws=ws)
        assert res.converged
        assert not [name for name, value in vars(ws).items() if np.shape(value) == (n, n)]

    GATHERED = fixture_matrix("gaussian", 100, 1000, seed=4)  # big enough to gather

    def test_forward_product_over_the_support(self):
        A = self.GATHERED
        ws = workspace(product_spy(A), np.ones(100))
        cross = (A.size - solvers._GATHER_FLOOR) // (solvers._GATHER_RATIO * 100)  # the widest support gathered
        assert 1 < cross < 1000 // solvers._GATHER_RATIO
        rng = np.random.default_rng(8)
        for k in (0, 1, cross, cross + 1, 1000):
            x = np.zeros(1000)
            x[rng.choice(1000, k, replace=False)] = rng.standard_normal(k)
            ws.A.widths.clear()
            got = ws.forward(x)
            assert np.linalg.norm(got - A @ x) <= 1e-14 * np.linalg.norm(A, 2) * np.linalg.norm(x)
            assert ws.A.widths == [k if k <= cross else 1000]

    def test_adjoint_product_over_the_nonzero_rows(self):
        A = self.GATHERED
        ws = workspace(product_spy(A), np.ones(100))
        cross = (A.size - solvers._GATHER_FLOOR) // (solvers._ROW_GATHER_RATIO * 1000)  # the most rows kept
        assert 1 < cross < 100 // solvers._ROW_GATHER_RATIO
        rng = np.random.default_rng(8)
        for k in (0, 1, cross, cross + 1, 100):  # y's 100 rows are too many to keep: every adjoint is dense
            v = np.zeros(100)
            v[rng.choice(100, k, replace=False)] = rng.standard_normal(k)
            ws.A.heights.clear()
            got = ws.adjoint(v)
            assert np.linalg.norm(got - A.T @ v) <= 1e-14 * np.linalg.norm(A, 2) * np.linalg.norm(v)
            assert ws.A.heights == [100] and not ws.A.widths and not ws.A.gathers
        # y on `cross` rows: the workspace copies them once, and an adjoint of a v that is zero
        # off them reads that copy, whether v fills those rows or some of them; one partly off them is dense
        rows = rng.choice(100, cross, replace=False)
        y = np.zeros(100)
        y[rows] = rng.standard_normal(cross)
        ws = workspace(product_spy(A), y)
        assert ws.A.gathers == [cross]
        off = np.setdiff1d(np.arange(100), rows)[:2]
        for R, height in ((rows, cross), (rows[: cross // 2], cross), (np.r_[rows[2:], off], 100)):
            v = np.zeros(100)
            v[R] = rng.standard_normal(R.size)
            ws.A.gathers.clear()
            ws.A.heights.clear()
            got = ws.adjoint(v)
            assert np.linalg.norm(got - A.T @ v) <= 1e-14 * np.linalg.norm(A, 2) * np.linalg.norm(v)
            assert ws.A.heights == [height] and not ws.A.gathers

    def test_no_gather_below_the_floor(self):
        A = devore_matrix(DeVoreParams(7, 2), normalize=True)  # 49 x 343: a dense product is cheaper at any width
        assert A.size < solvers._GATHER_FLOOR
        ws = workspace(product_spy(A), np.ones(49))
        assert ws.A.heights == [49]  # aty
        x, v = np.eye(343)[5], np.eye(49)[7]
        np.testing.assert_array_equal(ws.forward(x), A @ x)
        np.testing.assert_array_equal(ws.adjoint(v), A.T @ v)
        assert ws.A.widths == [343] and ws.A.heights == [49, 49]

    @staticmethod
    def route_certified_products(monkeypatch):
        """The spy of the one workspace of a route-certified solve on the scaling instance."""
        A, x = scaling_instance()
        spies = spied_workspaces(monkeypatch)
        res = solve_constrained(Problem(A, A @ x, Constrained(0.0)), RegularizerSpec.clot(0.2))
        assert res.info["certified"] and res.converged and len(spies) == 1
        return spies[0]

    def test_route_certified_wide_solve_makes_no_full_width_forward_product(self, monkeypatch):
        widths = self.route_certified_products(monkeypatch).widths
        assert widths and max(widths) <= 3

    def test_route_certified_solve_makes_no_full_height_adjoint_product(self, monkeypatch):
        # aty, the route's half-gradients and the certificate: A x and theta = A_S w lie on the truth's 3*23 rows
        heights = self.route_certified_products(monkeypatch).heights
        assert len(heights) >= 3 and max(heights) <= 3 * 23

    def test_route_certified_solve_copies_the_rows_of_y_once(self, monkeypatch):
        # every adjoint of that solve is zero off y's rows, so it reads the one copy made with aty
        A, x = scaling_instance()
        assert self.route_certified_products(monkeypatch).gathers == [np.count_nonzero(A @ x)]

    def test_stages_and_path_points_reuse_the_validated_problem(self, monkeypatch):
        A, x = TestConstrained.eps0_instance("no_recovery")  # certified after several stages
        spec = RegularizerSpec.lasso()
        checks, seen = [], []
        real_check, real_solve = Problem.__post_init__, solvers.solve_lagrangian

        def solve(problem, *args, **kwargs):
            seen.append(problem)
            return real_solve(problem, *args, **kwargs)

        monkeypatch.setattr(Problem, "__post_init__", lambda self: checks.append(1) or real_check(self))
        monkeypatch.setattr(solvers, "solve_lagrangian", solve)
        problem = Problem(A, A @ x, Constrained(0.0))
        res = solve_constrained(problem, spec)
        assert len(checks) == 1 and res.info["certified"] and len(seen) == res.info["inner_solves"] > 1
        e = math.frexp(np.abs(problem.y).max())[1]  # the stages solve y*2^-e, with the multipliers lam*2^e
        assert [p.form for p in seen] == [Lagrangian(np.ldexp(lam, e), "loss") for lam, _, _ in res.info["stages"]]
        assert all(p.A is problem.A and p.y is seen[0].y for p in seen) and problem.form == Constrained(0.0)
        assert np.array_equal(seen[0].y, np.ldexp(problem.y, -e))
        checks.clear(), seen.clear()
        grid = lambda_zero_threshold(spec, A, A @ x) * np.logspace(0, -2, 5)
        template = Problem(A, A @ x, Lagrangian(1.0))
        points = solution_path(template, spec, grid)
        assert len(checks) == 1 and [p.form for p in seen] == [Lagrangian(lam) for lam in grid]
        assert [p.result.info["lambda"] for p in points] == list(grid) and template.form == Lagrangian(1.0)


class TestNewtonFinish:
    """The active-set Newton route every Lagrangian solve runs, and what it reports when it gives up."""

    @staticmethod
    def sparse_instance():
        A = fixture_matrix("gaussian", 30, 40, seed=11)
        beta = np.zeros(40)
        beta[[2, 3, 4, 17, 30]] = (1.5, -2.0, 1.0, 0.7, -1.2)
        return A, A @ beta + 0.05 * np.random.default_rng(5).standard_normal(30)

    @pytest.mark.parametrize("spec", [
        RegularizerSpec.lasso(), RegularizerSpec.elastic_net(0.5), RegularizerSpec.clot(0.3),
        RegularizerSpec.sparse_group_lasso(0.4, Partition.contiguous([5] * 8)), RegularizerSpec.ridge(),
        RegularizerSpec.group_lasso(Partition.contiguous([5] * 8))],
        ids=["lasso", "en", "clot", "sgl", "ridge", "gl"])
    def test_accepted_candidate_passes_an_independent_check(self, spec):
        A, y = self.sparse_instance()
        lam = 0.1 * lambda_zero_threshold(spec, A, y) if spec.weights != (0.0, 1.0, 0.0) else 1.0
        opts = SolverOptions(kkt_tol=1e-8)
        res = solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec, opts)
        # the route certified the cold solve
        assert res.converged and res.info["route_give_up"] is None
        assert kkt_residual(A, y, res.x_hat, spec, lam) <= cert_tol(A, y, opts.kkt_tol)
        if spec.weights == (0.0, 1.0, 0.0):  # ridge: one full-vector Newton step
            assert res.iterations == res.info["route_solves"] == 1
            assert np.all(res.x_hat != 0.0)
        if spec.partition is not None:  # the route started zero groups: the support spans several
            assert len(set(spec.partition.labels[np.flatnonzero(res.x_hat)])) >= 2
        if spec.weights[0] == 0.0 and spec.partition is not None:  # gl: a group the Newton step
            assert res.iterations <= 2  # turns round is dropped whole, not by coordinates

    @pytest.mark.parametrize("spec, work", [
        (RegularizerSpec.clot(0.3), [(0, 0, 0), (2, 10, 3), (1, 5, 2), (2, 4, 3), (2, 4, 3), (2, 5, 3), (3, 7, 4),
                                     (2, 5, 3), (3, 7, 4), (2, 3, 3), (2, 6, 3), (1, 2, 2)]),
        (RegularizerSpec.sparse_group_lasso(0.4, Partition.contiguous([10] * 4)),
         [(0, 0, 0), (2, 12, 3), (1, 7, 2), (1, 4, 2), (1, 6, 2), (1, 4, 2), (2, 6, 3), (2, 7, 3), (2, 6, 3),
          (2, 6, 3), (1, 2, 2), (1, 2, 2)]),
    ], ids=["clot", "sgl"])
    def test_path_work_is_pinned(self, spec, work):
        # (route rounds, route_solves, grad_evals) per point: a Newton step with a wrong group-term
        # Hessian (unmasked across groups, say) still ends at a point the certificate accepts, so only
        # the work it took shows the fault
        A, y = self.sparse_instance()
        grid = lambda_zero_threshold(spec, A, y) * np.logspace(0, -3, 12)
        points = solution_path(Problem(A, y, Lagrangian(1.0)), spec, grid)
        assert all(p.result.converged and p.result.info["route_give_up"] is None for p in points)
        assert [(p.result.iterations, p.result.info["route_solves"], p.result.info["grad_evals"])
                for p in points] == work

    def test_zero_group_whose_leader_is_too_weak_alone_enters_whole(self):
        # CLOT from zero, A = I: the leading violator alone is inside its threshold
        # (2 - 1.05 < 1.05), the four together are not (0.95^2 + 3*0.35^2 > 1.05^2),
        # and the others' steps are under half the leader's; the dropped leader
        # brings the whole group in at the next round
        y = np.array([1.0, 0.7, 0.7, 0.7])
        spec = RegularizerSpec.clot(0.5)
        res = solve_lagrangian(Problem(np.eye(4), y, Lagrangian(2.1)), spec, TIGHT)
        assert res.converged and res.info["route_give_up"] is None
        assert np.all(res.x_hat > 0.0) and res.iterations == 2
        assert kkt_residual(np.eye(4), y, res.x_hat, spec, 2.1) <= cert_tol(np.eye(4), y, TIGHT.kkt_tol)

    def test_warm_start_enters_every_violator_in_one_round(self):
        # lasso, A = I, lam = 1: from the exact x_0, the zero coordinates' prox steps are (1.5, 0.2, 0.05)/4,
        # the last two under half the largest; a warm start takes all three in its first entering round
        y = np.array([3.0, 2.0, 0.7, 0.55])
        res = solve_lagrangian(Problem(np.eye(4), y, Lagrangian(1.0)), RegularizerSpec.lasso(), TIGHT,
                               x0=[2.5, 0.0, 0.0, 0.0])
        assert res.converged and res.info["route_give_up"] is None
        assert np.allclose(res.x_hat, y - 0.5, rtol=0, atol=1e-12)
        assert res.iterations == res.info["route_solves"] == 2  # S = {0}, then all four

    @pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 100.0])
    def test_wide_ridge_support_takes_its_step_on_the_rows(self, lam):
        # ridge's support is all 400 columns of a 40-row A: one step on A's rows lands on A^T (AA^T + lam*I)^-1 y
        rng = np.random.default_rng(7)
        A, y = rng.standard_normal((40, 400)), rng.standard_normal(40)
        res = solve_lagrangian(Problem(A, y, Lagrangian(lam)), RegularizerSpec.ridge())
        assert res.converged and res.info["route_give_up"] is None
        assert res.iterations == res.info["route_solves"] == 1
        ref = A.T @ np.linalg.solve(A @ A.T + lam * np.eye(40), y)
        assert np.max(np.abs(res.x_hat - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_wide_elastic_net_support_drops_on_the_rows(self):
        # EN's support outgrows the 40 rows and the steps there cross zero: the row-side matrix loses the
        # dropped columns, and the route alone certifies an answer an independent check accepts
        rng = np.random.default_rng(7)
        A, y = rng.standard_normal((40, 400)), rng.standard_normal(40)
        spec = RegularizerSpec.elastic_net(0.5)
        lam = 1e-2 * lambda_zero_threshold(spec, A, y)
        res = solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec)
        assert res.converged and res.info["route_give_up"] is None
        assert np.count_nonzero(res.x_hat) > 40 and res.info["route_solves"] > res.iterations
        assert kkt_residual(A, y, res.x_hat, spec, lam) <= cert_tol(A, y, SolverOptions().kkt_tol)

    def test_one_newton_step_drops_every_coordinate_it_flips(self):
        # lasso, A = I, lam = 1, from (1, 1, 1): the step to y - 0.5 = (1.5, -0.8, -0.7) flips the last two,
        # which belong at zero; both go at the first crossing, and one re-solve on S = {0} ends the round
        y = np.array([2.0, -0.3, -0.2])
        res = solve_lagrangian(Problem(np.eye(3), y, Lagrangian(1.0)), RegularizerSpec.lasso(), TIGHT,
                               x0=[1.0, 1.0, 1.0])
        assert res.converged and res.info["route_give_up"] is None
        assert res.x_hat.tolist() == [1.5, 0.0, 0.0]
        assert res.iterations == 1 and res.info["route_solves"] == 2

    def test_near_duplicate_column_path_is_route_certified(self):
        # a coordinate dropped with a flipped block that re-enters turns the route back to single drops:
        # without that, the last point of this path cycles past the route's rounds
        rng = np.random.default_rng(12)
        m = int(rng.integers(15, 61))
        A = rng.standard_normal((m, 40))
        A[:, 1] = A[:, 0] + 1e-3 * rng.standard_normal(m)
        beta = np.zeros(40)
        beta[rng.choice(40, 5, replace=False)] = 2.0 * rng.standard_normal(5)
        y = A @ beta + 0.1 * rng.standard_normal(m)
        spec = RegularizerSpec.lasso()
        grid = lambda_zero_threshold(spec, A, y) * np.logspace(0, -3, 15)
        points = solution_path(Problem(A, y, Lagrangian(1.0)), spec, grid)
        assert all(p.result.converged and p.result.info["route_give_up"] is None for p in points)
        assert sum(p.result.iterations for p in points) <= 40
        for p in points:
            assert kkt_residual(A, y, p.result.x_hat, spec, p.lam) <= cert_tol(A, y, SolverOptions().kkt_tol)

    @pytest.mark.parametrize("reason", ["rounds", "singular", "singular-augmented"])
    def test_each_give_up_is_reported_unconverged(self, reason, monkeypatch):
        A, y = self.sparse_instance()
        spec = RegularizerSpec.lasso()
        lam = 0.1 * lambda_zero_threshold(spec, A, y)
        if reason == "rounds":
            monkeypatch.setattr(solvers, "_ROUTE_ROUNDS", 1)
        else:  # a Newton step past the float range: any, or one of the augmented system of a support past m
            if reason == "singular-augmented":  # GL's support grows past A's 30 rows, and only then is the system
                A, y = TestConstrained.float_range_instance()  # wider than A's 60 columns
                spec, lam = RegularizerSpec.group_lasso(Partition.contiguous([20] * 3)), 1.0
            real, width = np.linalg.solve, A.shape[1] if reason == "singular-augmented" else 0
            monkeypatch.setattr(np.linalg, "solve", lambda hess, rhs: np.full_like(rhs, np.inf) if len(rhs) > width
                                else real(hess, rhs))
        res = solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec, TIGHT)
        assert res.info["route_give_up"] == reason.split("-")[0] and not res.converged
        assert np.isfinite(res.x_hat).all() and res.kkt_residual > cert_tol(A, y, TIGHT.kkt_tol)

    def test_singular_support_gram_is_route_certified(self):
        A, y, lam = twin_instance()  # the lasso keeps both twins, so A_S^T A_S is singular
        spec = RegularizerSpec.lasso()
        res = solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec, TIGHT)
        assert res.converged and res.info["route_give_up"] is None
        # the least-squares step moves the twins together: they share the weight one column would carry
        assert res.x_hat[0] != 0.0 and abs(res.x_hat[0] - res.x_hat[1]) <= 1e-12 * abs(res.x_hat[0])
        assert kkt_residual(A, y, res.x_hat, spec, lam) <= cert_tol(A, y, TIGHT.kkt_tol)

    @pytest.mark.parametrize("fixture", ["c6", "c7", "c8"])
    def test_route_and_a_reference_fista_agree(self, fixture):
        # (A, y, spec, multiplier grid, options) of each study's own solves
        if fixture == "c6":
            pre = preprocess(*experiments.grouping_fixture(seed=0, n_samples=100))
            opts = SolverOptions(kkt_tol=1e-10)
            cases = [(pre.A, pre.y, spec, [0.1 * lambda_zero_threshold(spec, pre.A, pre.y)], opts)
                     for spec in (RegularizerSpec.clot(0.5),
                                  RegularizerSpec.sparse_group_lasso(0.5, Partition.contiguous([3, 3])))]
            A, y, lam = twin_instance()
            cases.append((A, y, RegularizerSpec.clot(0.5), [lam], opts))
        elif fixture == "c7":
            config = experiments.load_builtin_scenario("example4")
            rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
            data = experiments._draw_linear_model(experiments._generator_model(config.generator), rng)
            A, y = data["X_train"] / np.sqrt(50), data["y_train"] / np.sqrt(50)
            grid = np.logspace(1, -4, 20)
            cases = [(A, y, RegularizerSpec(kind, mu), grid, experiments._COMPARISON_OPTS)
                     for kind, mu in (("lasso", 0.0), ("en", 0.5), ("clot", 0.5))]
        else:
            pre = preprocess(*experiments.grouping_fixture(seed=0, n_samples=100))
            cases = []
            for spec in (RegularizerSpec.clot(0.5), RegularizerSpec.elastic_net(0.5)):
                grid = lambda_zero_threshold(spec, pre.A, pre.y) * np.logspace(0, -4, 21)
                cases.append((pre.A, pre.y, spec, grid, experiments._PATH_OPTS))
        # both answers are certified at tol, so (F convex) their objectives differ by at
        # most tol times their l1 distance, however far apart correlated columns let them lie
        for A, y, spec, grid, opts in cases:
            tol, ref = cert_tol(A, y, opts.kkt_tol), np.zeros(A.shape[1])
            objective = lambda x, lam: float(np.sum((y - A @ x) ** 2)) + lam * penalty_value(spec, x)
            for p in solution_path(Problem(A, y, Lagrangian(1.0)), spec, grid, opts):
                ref = fista_reference(A, y, spec, p.lam, tol, ref)
                assert p.result.converged and p.result.info["route_give_up"] is None
                assert kkt_residual(A, y, p.result.x_hat, spec, p.lam) <= tol
                dx = float(np.sum(np.abs(p.result.x_hat - ref)))
                assert abs(objective(p.result.x_hat, p.lam) - objective(ref, p.lam)) <= (
                    tol * dx + 1e-12 * objective(ref, p.lam))

    @pytest.mark.parametrize("case", ["gl-wide", "lasso-twins", "lasso-eps0-support-of-m", "lasso-warm-200-on-10-rows",
                                      "clot-subnormal-path", "lasso-ill-conditioned", "clot-warm-path",
                                      "clot-past-m-plus-32", "sgl-past-m-plus-32", "sgl-split-zero-group"])
    def test_route_certifies_wide_singular_and_subnormal_supports(self, case, monkeypatch):
        # each Lagrangian solve, and each inner solve of a constrained one, within the route's rounds: a group
        # term's support wider than A's 30 rows (the augmented step), a singular lasso Hessian (the least-squares
        # step), a lasso support one past m (the null-space pivot), one of 200 columns on 10 rows (190 pivots),
        # a group Newton matrix where z ~ 2e-310, columns scaled over two decades at a small multiplier, a
        # CLOT grid each warm-started from the last answer, CLOT and SGL optima more than 32 columns past m
        # (SGL's also drops groups on the way to zero),
        # and an SGL round whose budget let in two of a zero group's violators, which alone do not descend
        A, y = TestConstrained.float_range_instance()
        if case == "sgl-split-zero-group":
            A, y = fixture_matrix("gaussian", 10, 40, seed=0), np.random.default_rng(10).standard_normal(10)
            spec = RegularizerSpec.sparse_group_lasso(0.9, Partition.contiguous([10] * 4))
            lam = 10.0**-0.2 * lambda_zero_threshold(spec, A, y)
            solves = [solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec)]
        elif case in ("clot-past-m-plus-32", "sgl-past-m-plus-32"):
            m, n = (20, 200) if case.startswith("clot") else (10, 400)
            A, y = fixture_matrix("gaussian", m, n, seed=0), np.random.default_rng(1).standard_normal(m)
            spec, f = ((RegularizerSpec.clot(0.8), 0.01) if case.startswith("clot") else
                       (RegularizerSpec.sparse_group_lasso(0.95, Partition.contiguous([100] * 4)), 0.1))
            solves = [solve_lagrangian(Problem(A, y, Lagrangian(f * lambda_zero_threshold(spec, A, y))), spec)]
            # one entering coordinate per round past m takes 58 and 74 rounds; doubling the excess, 16 and 18
            assert np.count_nonzero(solves[0].x_hat) > m + 32 and solves[0].iterations <= 32
        elif case == "lasso-ill-conditioned":
            A = fixture_matrix("gaussian", 30, 20, seed=3) * np.logspace(0, -2, 20)
            y = A @ np.random.default_rng(0).standard_normal(20)
            solves = [solve_lagrangian(Problem(A, y, Lagrangian(1e-4)), RegularizerSpec.lasso(), TIGHT)]
        elif case == "clot-warm-path":
            A, y = self.sparse_instance()
            spec, warm, solves = RegularizerSpec.clot(0.3), None, []
            for lam in lambda_zero_threshold(spec, A, y) * np.logspace(-0.5, -3, 12):
                solves.append(solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec, x0=warm))
                warm = solves[-1].x_hat
        elif case == "gl-wide":
            solves = [solve_lagrangian(Problem(A, y, Lagrangian(1.0)), RegularizerSpec.group_lasso(
                Partition.contiguous([20] * 3)))]
        elif case == "lasso-twins":
            A, y, lam = twin_instance()
            solves = [solve_lagrangian(Problem(A, y, Lagrangian(lam)), RegularizerSpec.lasso(), TIGHT)]
        elif case == "lasso-eps0-support-of-m":
            solves, real = [], solvers.solve_lagrangian
            monkeypatch.setattr(solvers, "solve_lagrangian", lambda *args, **kw: solves.append(real(*args, **kw))
                                or solves[-1])
            y = np.random.default_rng(1).standard_normal(30)
            res = solve_constrained(Problem(A, y, Constrained(0.0)), RegularizerSpec.lasso())
            assert res.converged and max(np.count_nonzero(s.x_hat) for s in solves) == 30
        elif case == "lasso-warm-200-on-10-rows":
            A, beta = fixture_matrix("gaussian", 10, 200, seed=0), np.zeros(200)
            beta[[3, 50, 120]] = (1.0, -1.5, 2.0)
            y = A @ beta + 0.05 * np.random.default_rng(0).standard_normal(10)
            lam = 0.1 * lambda_zero_threshold(RegularizerSpec.lasso(), A, y)
            sizes, eigh = [], np.linalg.eigh  # a support pivoted down to 10 columns steps by np.linalg.solve again
            monkeypatch.setattr(np.linalg, "eigh", lambda hess: sizes.append(len(hess)) or eigh(hess))
            solves = [solve_lagrangian(Problem(A, y, Lagrangian(lam)), RegularizerSpec.lasso(), TIGHT, x0=np.ones(200))]
            assert np.count_nonzero(solves[0].x_hat) <= 10 and sizes and min(sizes) > 10
        else:  # the loss-side path of test_prediction_past_the_float_range_starts_from_the_last_answer
            A, y, spec = 1e10 * A, 1e-300 * y, RegularizerSpec.clot(0.2)
            grid = 1.0 / (lambda_zero_threshold(spec, A, y) * np.logspace(0, -3, 8))
            solves = [p.result for p in solution_path(Problem(A, y, Lagrangian(1.0, "loss")), spec, grid)]
            assert 0.0 < np.max(np.abs(solves[-1].x_hat)) < 1e-300
        for res in solves:
            assert res.converged and res.info["route_give_up"] is None and res.iterations <= solvers._ROUTE_ROUNDS


class TestRouting:
    def test_support_and_dense_forward_products_agree(self, monkeypatch):
        A, x = scaling_instance()
        spec = RegularizerSpec.clot(0.2)
        solve = lambda c: solve_constrained(Problem(A, A @ (10.0**c * x), Constrained(0.0)), spec)
        narrow = [solve(c) for c in range(5)]
        monkeypatch.setattr(solvers, "_GATHER_RATIO", math.inf)  # no support is narrow: every product is dense
        dense = solve(0)
        assert narrow[0].converged and dense.converged
        assert np.linalg.norm(narrow[0].x_hat - dense.x_hat) <= 1e-12 * np.linalg.norm(dense.x_hat)
        assert [s[0] for s in narrow[0].info["stages"]] == [s[0] for s in dense.info["stages"]]
        np.testing.assert_allclose([s[1] for s in narrow[0].info["stages"]],
                                   [s[1] for s in dense.info["stages"]], rtol=1e-12)
        for c, res in enumerate(narrow):  # scale-equivariant: 10^c x is recovered from 10^c y
            assert res.converged and res.info["certified"], c
            assert np.linalg.norm(res.x_hat - 10.0**c * x) <= 1e-12 * np.linalg.norm(10.0**c * x), c

    @pytest.mark.parametrize("spec", [RegularizerSpec.clot(0.2), RegularizerSpec.elastic_net(0.8)], ids=["clot", "en"])
    def test_row_gathered_and_dense_adjoint_products_agree(self, spec, monkeypatch):
        A, x = scaling_instance()
        prob = Problem(A, A @ x, Constrained(0.0))
        assert solvers._Workspace(A, prob.y, prob._frob2).rows is not None  # y's rows are kept
        gathered = solve_constrained(prob, spec)
        monkeypatch.setattr(solvers, "_ROW_GATHER_RATIO", math.inf)  # y's rows are not kept: every adjoint is dense
        dense = solve_constrained(prob, spec)
        assert gathered.converged and dense.converged and gathered.info["certified"]
        assert np.linalg.norm(gathered.x_hat - dense.x_hat) <= 1e-12 * np.linalg.norm(dense.x_hat)
        # the same stages; their multipliers scale 1/gauge(A^T y), whose sum over fewer rows may round otherwise
        assert len(gathered.info["stages"]) == len(dense.info["stages"])
        np.testing.assert_allclose([s[0] for s in gathered.info["stages"]], [s[0] for s in dense.info["stages"]],
                                   rtol=1e-15)


class TestConstrained:
    def test_zero_rhs(self):
        A = fixture_matrix("gaussian", 5, 8, seed=0)
        res = solve_constrained(Problem(A, np.zeros(5), Constrained(0.0)), RegularizerSpec.clot(0.2))
        assert np.all(res.x_hat == 0.0)
        assert res.converged

    @pytest.mark.parametrize("spec", [RegularizerSpec.lasso(), RegularizerSpec.elastic_net(0.8)], ids=["lasso", "en"])
    def test_certified_where_every_square_underflows(self, spec):
        # each z_i^2 of the refit at 3e-163 x underflows to 0, so a group term would be 0/0; c = 0 has none
        A, x = np.random.default_rng(0).standard_normal((30, 60)), np.zeros(60)
        x[[3, 17, 40]] = [1.0, -2.0, 0.5]
        res = solve_constrained(Problem(A, A @ (3e-163 * x), Constrained(0.0)), spec)
        assert res.info["certified"] and np.linalg.norm(res.x_hat / 3e-163 - x) <= 1e-12

    def test_eps_larger_than_y(self, rng):
        A, _, y = small_instance(rng)
        res = solve_constrained(Problem(A, y, Constrained(np.linalg.norm(y) * 2)),
                                RegularizerSpec.lasso())
        assert np.all(res.x_hat == 0.0)

    @pytest.mark.parametrize("A, y, eps, spec", [
        (np.array([[1.0], [0.0]]), np.array([0.0, 1.0]), 0.5, RegularizerSpec.lasso()),  # residual >= 1 no matter what
        (np.random.default_rng(3).standard_normal((40, 10)), np.random.default_rng(4).standard_normal(40), 0.0,
         RegularizerSpec.lasso()),
        (np.random.default_rng(3).standard_normal((40, 10)), np.random.default_rng(4).standard_normal(40), 0.5,
         RegularizerSpec.lasso()),
        (np.zeros((3, 2)), np.ones(3), 0.5, RegularizerSpec.lasso()),  # judged without a search
    ] + [  # a least residual of 0.72*||y|| is infeasible however small ||y|| is
        (A, s * y, eps * s, spec)
        for A, y in [(lambda rng: (rng.standard_normal((40, 20)), rng.standard_normal(40)))(np.random.default_rng(3))]
        for s in (1e-7, 1e-10) for eps in (0.0, 0.5)
        for spec in (RegularizerSpec.clot(0.2), RegularizerSpec.lasso(), RegularizerSpec.elastic_net(0.8),
                     RegularizerSpec.ridge())
    ], ids=["2x1", "gaussian_40x10_eps0", "gaussian_40x10_eps0.5", "zero_matrix"] + [
        f"tall_40x20_s{s:g}_eps{eps:g}s_{spec}" for s in (1e-7, 1e-10) for eps in (0, 0.5)
        for spec in ("clot", "lasso", "en", "ridge")])
    def test_infeasible_raises(self, A, y, eps, spec):
        with pytest.raises(InfeasibleError, match="^least-squares residual"):
            solve_constrained(Problem(A, y, Constrained(eps)), spec)

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_infeasible_walk_stops_early(self, monkeypatch, eps):
        # once the residual stops falling above the budget, least squares on A is
        # solved, once, and refuses the problem without the rest of the walk
        A = np.random.default_rng(3).standard_normal((40, 10))
        y = np.random.default_rng(4).standard_normal(40)
        stages, widths = [], []
        real, lstsq = solvers.solve_lagrangian, np.linalg.lstsq

        def solve(*args, **kwargs):
            stages.append(args[0].form.lam)
            return real(*args, **kwargs)

        def spy(a, b, *args, **kwargs):
            widths.append(np.shape(a)[1])
            return lstsq(a, b, *args, **kwargs)

        monkeypatch.setattr(solvers, "solve_lagrangian", solve)
        monkeypatch.setattr(np.linalg, "lstsq", spy)
        with pytest.raises(InfeasibleError, match="^least-squares residual"):
            solve_constrained(Problem(A, y, Constrained(eps)), RegularizerSpec.lasso())
        assert len(stages) < solvers._MAX_STAGES and widths == [10]

    def test_singular_support_at_eps0_is_left_uncertified(self, monkeypatch):
        # twin columns make A_S^T A_S singular, so no exact dual point exists on the
        # recovered support; the walk still converges and splits the weight evenly
        A = fixture_matrix("duplicated_column", 20, 40, seed=3)
        x = np.zeros(40)
        x[[0, 1, 7]] = (1.0, 1.0, -0.5)
        refused, solve = [], np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                refused.append(sys._getframe(1).f_code.co_name)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        res = solve_constrained(Problem(A, A @ x, Constrained(0.0)), RegularizerSpec.clot(0.3))
        assert res.converged and not res.info["certified"]
        assert "certify" in refused  # its LinAlgError branch gives up on the certificate
        assert len(res.info["stages"]) == solvers._MAX_STAGES
        assert np.array_equal(np.flatnonzero(res.x_hat), [0, 1, 7])
        assert res.x_hat[0] == pytest.approx(res.x_hat[1], rel=1e-12)
        assert np.allclose(res.x_hat, x, atol=1e-6)

    def test_zero_matrix_within_the_slack_is_refused(self):
        # ||y|| is above eps but within the feasibility slack feas_tol*||y||: not infeasible
        y = np.full(3, 0.1)
        with pytest.raises(ValueError, match="A must be nonzero"):
            solve_constrained(Problem(np.zeros((3, 2)), y, Constrained(np.linalg.norm(y) * (1 - 5e-7))),
                              RegularizerSpec.lasso())

    @pytest.mark.parametrize("eps, name, expected", [
        (0.0, None, []), (0.2, None, []), (0.0, "devore_5_2", [])], ids=["0.0", "0.2", "devore_5_2"])
    def test_feasible_solve_runs_no_least_squares_on_all_of_a(self, monkeypatch, eps, name, expected):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((30, 60))
        x = np.zeros(60)
        x[[4, 17, 40]] = [1.5, -2.0, 0.7]
        y = A @ x + (0.02 * rng.standard_normal(30) if eps else 0.0)
        if name:
            A, x = self.eps0_instance(name)
            y = A @ x
        widths = []
        lstsq = np.linalg.lstsq

        def spy(a, b, *args, **kwargs):
            widths.append(np.shape(a)[1])
            return lstsq(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        res = solve_constrained(Problem(A, y, Constrained(eps)), RegularizerSpec.clot(0.2))
        assert res.info["feasible"] and res.info["certified"] == (name is not None)
        # a certified solve returns the normal-equation refit its certificate was
        # built from, and an uncertified one its last stage: neither solves least squares
        assert widths == expected

    def test_exact_recovery_devore(self):
        A = devore_matrix(DeVoreParams(5, 2), normalize=True)
        x = np.zeros(125)
        x[7] = 1.3
        y = A @ x
        res = solve_constrained(Problem(A, y, Constrained(0.0)), RegularizerSpec.clot(0.2))
        assert res.converged
        np.testing.assert_allclose(res.x_hat, x, atol=1e-8)

    def test_scale_equivariance_of_homogeneous_specs(self, rng):
        # group-sparse truth so the group-lasso optimum is also exactly sparse
        A = fixture_matrix("gaussian", 15, 24, seed=5)
        part = Partition.contiguous([3] * 8)
        x = np.zeros(24)
        x[3:6] = (1.5, -0.7, 0.9)
        y = A @ x
        for spec in (RegularizerSpec.lasso(), RegularizerSpec.clot(0.2),
                     RegularizerSpec.sparse_group_lasso(0.3, part),
                     RegularizerSpec.group_lasso(part)):
            base = solve_constrained(Problem(A, y, Constrained(0.0)), spec).x_hat
            for c in (10.0, 100.0, 1000.0):
                scaled = solve_constrained(Problem(A, c * y, Constrained(0.0)), spec).x_hat
                err = np.linalg.norm(scaled - c * base) / (c * np.linalg.norm(base))
                assert err <= 1e-6, (spec.label(), c, err)

    @staticmethod
    def float_range_truth(kind="raw"):
        x = np.zeros(60)
        x[[3, 17, 40]] = (1.5, -2.0, 0.7) if kind == "sqrt30" else (1.0, -2.0, 0.5)
        return x

    @classmethod
    def float_range_instance(cls, kind="raw"):
        # default_rng(0)'s 30x60 Gaussian as drawn ("raw"), over sqrt(30) ("sqrt30"), or with unit columns ("unit")
        A = np.random.default_rng(0).standard_normal((30, 60))
        A = A / np.sqrt(30.0) if kind == "sqrt30" else A / np.linalg.norm(A, axis=0) if kind == "unit" else A
        return A, A @ cls.float_range_truth(kind)

    @pytest.mark.parametrize("spec", [RegularizerSpec.lasso(), RegularizerSpec.clot(0.2),
                                      RegularizerSpec.sparse_group_lasso(0.2, Partition.contiguous([20] * 3)),
                                      RegularizerSpec.group_lasso(Partition.contiguous([20] * 3)),
                                      RegularizerSpec.ridge()],
                             ids=lambda spec: spec.label())
    def test_scale_equivariance_across_the_float_range(self, spec):
        # every homogeneous penalty's answer scales with y where sums of squares of y, of the residuals
        # and of the group blocks would under- or overflow
        A, y = self.float_range_instance()
        ridge = spec == RegularizerSpec.ridge()  # its eps = 0 walk stops within 1e-9*||y||, which y's mantissa moves
        base = solve_constrained(Problem(A, y, Constrained(0.0)), spec)
        for k in range(-300, 301, 50):
            res = solve_constrained(Problem(A, 10.0**k * y, Constrained(0.0)), spec)
            err = np.max(np.abs(res.x_hat / 10.0**k - base.x_hat)) / np.max(np.abs(base.x_hat))
            assert err <= (1e-6 if ridge else 1e-12), (k, err)
            assert res.info["certified"] == base.info["certified"], k
            assert np.isfinite(res.objective) or ridge and k >= 200, k  # ||x||^2 exceeds the float range there
        # a power of two scales y, eps and every result exactly, so the answers are the same bits
        for eps in (0.0, 0.05 * np.linalg.norm(y)):
            base = solve_constrained(Problem(A, y, Constrained(eps)), spec)
            for k in (-1000, -500, -1, 1, 500, 900):
                res = solve_constrained(Problem(A, np.ldexp(y, k), Constrained(math.ldexp(eps, k))), spec)
                assert np.array_equal(res.x_hat, np.ldexp(base.x_hat, k)), (eps, k)
                with np.errstate(over="ignore"):  # a multiplier past the float range is inf on both sides
                    stages = [(np.ldexp(lam, 0 if ridge else -k), np.ldexp(r, k), it)
                              for lam, r, it in base.info["stages"]]
                assert res.info["stages"] == stages, (eps, k)

    @pytest.mark.parametrize("spec", [RegularizerSpec.elastic_net(0.8), RegularizerSpec.ridge()],
                             ids=lambda spec: spec.label())
    def test_ridge_terms_are_not_settled_by_an_under_or_overflowing_norm(self, spec):
        A, y = self.float_range_instance()
        tiny = solve_constrained(Problem(A, 1e-165 * y, Constrained(0.0)), spec)
        assert np.any(tiny.x_hat) or not tiny.info["certified"]  # ||y|| is not zero there
        with np.errstate(over="ignore"):  # b*||x||^2, and so the objective, exceeds the float range at 1e160
            huge = solve_constrained(Problem(A, 1e160 * y, Constrained(0.0)), spec)
        assert not (huge.converged and huge.info["inner_solves"] == 1)  # 1e-9*||y|| is finite there

    @pytest.mark.parametrize("kind", ["raw", "unit", "sqrt30"])
    def test_ridge_at_eps_zero_is_least_norm_at_every_scale(self, kind):
        # each stage's step on A's rows lies in the row space of A, so no stage can leave x a null-space part
        A, y = self.float_range_instance(kind)
        for s in (1e-300, 1e-165, 1e-40, 1e-24, 1e-12, 1.0, 1e100, 1e160):
            res = solve_constrained(Problem(A, s * y, Constrained(0.0)), RegularizerSpec.ridge())
            ref = np.linalg.pinv(A) @ (s * y) / s
            err = np.max(np.abs(res.x_hat / s - ref)) / np.max(np.abs(ref))
            assert res.converged and err <= 1e-8, (s, err)

    @pytest.mark.parametrize("spec", [RegularizerSpec.clot(0.2),
                                      RegularizerSpec.sparse_group_lasso(0.2, Partition.contiguous([20] * 3)),
                                      RegularizerSpec.group_lasso(Partition.contiguous([20] * 3))],
                             ids=lambda spec: spec.label())
    def test_lagrangian_norm_penalties_across_the_float_range(self, spec):
        # only the constrained form rescales y; here the group norms of the route, the certificate and the
        # penalty under- or overflow at s unless taken at unit scale, and lam and kkt_tol scale with y
        A, y = self.float_range_instance()
        lam = 0.5 * lambda_zero_threshold(spec, A, y)
        base = solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec)
        assert base.info["route_give_up"] is None
        for s in (1e-300, 1e-165, 1e-160, 1e150, 1e160):
            with np.errstate(over="ignore"):  # ||y - Ax||^2, and so the objective, exceeds the float range at 1e160
                res = solve_lagrangian(Problem(A, s * y, Lagrangian(s * lam)), spec, SolverOptions(1e-8 * min(1.0, s)))
            assert res.converged and res.info["route_give_up"] is None, (s, res.info)
            err = np.max(np.abs(res.x_hat / s - base.x_hat)) / np.max(np.abs(base.x_hat))
            assert err <= 1e-12, (s, err)

    @pytest.mark.parametrize("spec", [RegularizerSpec.lasso(), RegularizerSpec.clot(0.2)], ids=lambda spec: spec.label())
    def test_route_across_the_float_range(self, spec):
        # the route's steps and certificate neither under- nor overflow: lam and the certificate's tolerance
        # scale with y, so every answer follows the unit-scale solve
        A, y = self.float_range_instance()
        lam, g = 0.5 * lambda_zero_threshold(spec, A, y), 2.0 * np.max(np.abs(A.T @ y))
        base = solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec)
        assert base.converged
        for s in (1e-300, 1e150, 1e160):
            kkt_tol = 1e-8 * s * max(1.0, g) / max(1.0, s * g)  # the tolerance is kkt_tol*max(1, s*g)
            with np.errstate(over="ignore"):  # ||y - Ax||^2, and so the objective, exceeds the float range at 1e160
                res = solve_lagrangian(Problem(A, s * y, Lagrangian(s * lam)), spec, SolverOptions(kkt_tol))
            assert res.converged and res.info["route_give_up"] is None, (s, res.info)
            err = np.max(np.abs(res.x_hat / s - base.x_hat)) / np.max(np.abs(base.x_hat))
            assert err <= 1e-12, (s, err)

    @pytest.mark.parametrize("spec", [RegularizerSpec.lasso(), RegularizerSpec.elastic_net(0.8),
                                      RegularizerSpec.clot(0.2)], ids=lambda spec: spec.label())
    def test_loss_side_multiplier_at_the_top_of_the_float_range(self, spec):
        # lam*||y - Az||^2 + R(z) is solved over 2^e, e the exponent of lam: in the caller's units its tolerance,
        # kkt_tol*2*lam*||A^T y||_inf, is past the float range there, and any point would pass it
        A, y = self.float_range_instance("sqrt30")
        base = solve_lagrangian(Problem(A, y, Lagrangian(1e300, "loss")), spec)
        assert base.converged and np.any(base.x_hat)
        for lam in (5e307, 1e308, np.finfo(float).max):
            res = solve_lagrangian(Problem(A, y, Lagrangian(lam, "loss")), spec)
            assert res.converged and np.isfinite(res.kkt_residual), (lam, res.kkt_residual, res.info)
            err = np.max(np.abs(res.x_hat - base.x_hat)) / np.max(np.abs(base.x_hat))
            assert err <= 1e-12, (lam, err)
        # on 1e150*y the gap itself is past the float range in the caller's units: the answer is found, and
        # reported as not converged
        res = solve_lagrangian(Problem(A, 1e150 * y, Lagrangian(1e300, "loss")), spec)
        assert not res.converged and res.kkt_residual == math.inf
        assert np.max(np.abs(res.x_hat / 1e150 - base.x_hat)) <= 1e-12 * np.max(np.abs(base.x_hat))

    def test_certified_start_takes_no_prox_step(self):
        # a loss weight near the bottom of the float range certifies zero at the first check; the
        # prox step 1/(2*lam*||A||_F^2), past the float range there, is never taken
        A, y = self.float_range_instance()
        res = solve_lagrangian(Problem(A, y, Lagrangian(1e-320, side="loss")), RegularizerSpec.elastic_net(0.8))
        assert res.converged and res.iterations == 0 and not np.any(res.x_hat)

    @pytest.mark.parametrize("spec", [RegularizerSpec.lasso(), RegularizerSpec.clot(0.2),
                                      RegularizerSpec.elastic_net(0.8), RegularizerSpec.ridge()],
                             ids=lambda spec: spec.label())
    def test_multiplier_whose_prox_threshold_rounds_to_zero_is_refused(self, spec):
        # at the smallest subnormal the route's first threshold, lam/(2*||A||_F^2), rounds to 0: no coordinate
        # could move, and the solve names lam instead of failing inside prox; at 1e-320 it is still positive
        A = np.random.default_rng(0).standard_normal((30, 60))
        with pytest.raises(ValueError, match=r"^lam=5e-324 "):
            solve_lagrangian(Problem(A, A[:, 3], Lagrangian(5e-324)), spec)
        assert solve_lagrangian(Problem(A, A[:, 3], Lagrangian(1e-320)), spec).converged

    @pytest.mark.parametrize("kind, scale", [("raw", 1e-306), ("raw", 1e-307), ("raw", 1e-308), ("raw", 1e-309),
                                             ("unit", 1e-308), ("sqrt30", 1e-308)],
                             ids=["1e-306", "1e-307", "1e-308", "1e-309", "unit-1e-308", "sqrt30-1e-308"])
    def test_elastic_net_near_the_bottom_of_the_float_range(self, kind, scale):
        # the first stage's multiplier is 6e304 to 6e307 on the raw instance, and 1.5e308 to 1.8e308 on the other
        # two, where twice it overflows; the solve scales its objective so that the larger weight is in [1, 2)
        A, y = self.float_range_instance(kind)
        res = solve_constrained(Problem(A, scale * y, Constrained(0.0)), RegularizerSpec.elastic_net(0.8))
        assert res.converged and res.info["certified"] and res.info["inner_solves"] == 1
        assert np.max(np.abs(res.x_hat / scale - self.float_range_truth(kind))) <= 1e-12 * 2.0

    @pytest.mark.parametrize("kind, scale", [("unit", 1e-309), ("unit", 1e-310), ("sqrt30", 1e-309),
                                             ("sqrt30", 1e-310), ("raw", 1e-310)])
    def test_elastic_net_whose_multiplier_leaves_the_float_range(self, kind, scale):
        # the multiplier that would move EN off zero is past the float range: the walk's first stage is at the
        # largest float, and misses the target there
        A, y = self.float_range_instance(kind)
        res = solve_constrained(Problem(A, scale * y, Constrained(0.0)), RegularizerSpec.elastic_net(0.8))
        assert not res.converged and not res.info["certified"] and res.info["inner_solves"] == 1
        assert res.info["stages"][0][0] == np.finfo(float).max

    @pytest.mark.parametrize("kind", ["raw", "unit", "sqrt30"])
    def test_elastic_net_budget_near_the_bottom_of_the_float_range(self, kind):
        # the secant reads the residual relative to eps, which stays in range where both are below 1e-300
        A, y = self.float_range_instance(kind)
        y = 1e-309 * y
        eps = 0.05 * group_norms(y)
        res = solve_constrained(Problem(A, y, Constrained(eps)), RegularizerSpec.elastic_net(0.8))
        assert res.residual_l2 <= group_norms(y)
        assert not res.converged or abs(res.residual_l2 - eps) <= 1e-6 * eps

    def test_feasibility_with_positive_eps(self, rng):
        A, x, y = small_instance(rng, noise=0.3)
        eps = 0.5
        res = solve_constrained(Problem(A, y, Constrained(eps)), RegularizerSpec.lasso())
        assert res.converged
        assert res.residual_l2 <= eps * (1 + 1e-6) + 1e-12
        # the constraint should bind: far smaller residuals would be suboptimal
        assert res.residual_l2 >= eps * 0.9

    def test_exact_recovery_gaussian_60x40(self):
        # every eps = 0 stage hands on a warm start; the refit on the final
        # support must recover the 3-sparse vector to rounding
        rng = np.random.default_rng(0)
        A = rng.standard_normal((60, 40))
        x = np.zeros(40)
        x[rng.choice(40, 3, replace=False)] = rng.standard_normal(3)
        res = solve_constrained(Problem(A, A @ x, Constrained(0.0)), RegularizerSpec.clot(0.2))
        assert res.converged and res.info["certified"]
        assert np.linalg.norm(res.x_hat - x) <= 1e-12 * np.linalg.norm(x)

    @staticmethod
    def eps0_instance(name):
        if name == "gaussian_60x40":  # the instance of test_exact_recovery_gaussian_60x40
            rng = np.random.default_rng(0)
            A = rng.standard_normal((60, 40))
            x = np.zeros(40)
            x[rng.choice(40, 3, replace=False)] = rng.standard_normal(3)
        elif name == "devore_5_2":  # the instance of test_exact_recovery_devore
            A = devore_matrix(DeVoreParams(5, 2), normalize=True)
            x = np.zeros(125)
            x[7] = 1.3
        elif name == "wide":
            A = np.random.default_rng(5).standard_normal((30, 60))
            x = np.zeros(60)
            x[[4, 5, 40]] = [1.5, -2.0, 0.7]
        else:  # 5-sparse on 15 rows: the minimizer is not the truth
            rng = np.random.default_rng(8)
            A = rng.standard_normal((15, 40))
            x = np.zeros(40)
            x[rng.choice(40, 5, replace=False)] = rng.standard_normal(5)
        return A, x

    @pytest.mark.parametrize("name", ["gaussian_60x40", "devore_5_2"])
    def test_first_certified_stage_ends_the_walk(self, name, monkeypatch):
        A, x = self.eps0_instance(name)
        spec = RegularizerSpec.clot(0.2)
        real = solvers.solve_lagrangian  # a stage's own certificate is not the program's
        monkeypatch.setattr(solvers, "solve_lagrangian",
                            lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), kkt_residual=1.0))
        res = solve_constrained(Problem(A, A @ x, Constrained(0.0)), spec)
        assert res.converged and res.info["certified"]
        assert res.info["inner_solves"] == 1 and res.iterations == res.info["stages"][0][2]
        assert res.kkt_residual <= SolverOptions().kkt_tol
        np.testing.assert_allclose(res.x_hat, x, rtol=0, atol=1e-12 * np.linalg.norm(x))
        # the answer is the normal-equation refit on its support, which theta is built from
        S = solvers.support(res.x_hat)
        A_S = A[:, S]
        z = np.linalg.solve(A_S.T @ A_S, A_S.T @ (A @ x))
        np.testing.assert_array_equal(res.x_hat[S], z)
        assert res.residual_l2 == np.linalg.norm(A_S @ z - A @ x)

    def test_certified_flag_on_the_other_branches(self, rng):
        A, _, y = small_instance(rng, noise=0.1)
        spec = RegularizerSpec.clot(0.3)
        trivial, noisy = (solve_constrained(Problem(A, y, Constrained(eps)), spec)
                          for eps in (2 * np.linalg.norm(y), 0.3))
        assert trivial.info["certified"] and trivial.kkt_residual == 0.0  # theta = 0 certifies zero
        assert noisy.converged and not noisy.info["certified"]

    def test_refit_short_of_the_target_is_not_certified(self):
        # the first stages miss the small entry; their refits leave a residual of
        # about 1e-3 and must not end the walk, however their dual points look
        A, x = self.eps0_instance("devore_5_2")
        x[[40, 90]] = (-0.9, 1e-3)
        y = A @ x
        res = solve_constrained(Problem(A, y, Constrained(0.0)), RegularizerSpec.clot(0.2))
        assert res.converged and res.info["certified"] and res.info["inner_solves"] > 1
        assert res.residual_l2 <= 1e-9 * np.linalg.norm(y)
        np.testing.assert_allclose(res.x_hat, x, rtol=0, atol=1e-12 * np.linalg.norm(x))

    @pytest.mark.parametrize("spec, name", [
        (RegularizerSpec.clot(0.2), "devore_5_2"), (RegularizerSpec.lasso(), "devore_5_2"),
        (RegularizerSpec.elastic_net(0.8), "devore_5_2"), (RegularizerSpec.clot(0.2), "wide"),
        (RegularizerSpec.sparse_group_lasso(0.3, Partition.contiguous([3] * 20)), "wide"),
        (RegularizerSpec.lasso(), "no_recovery")],
        ids=["clot-devore", "lasso-devore", "en-devore", "clot-wide", "sgl-wide", "lasso-no-recovery"])
    def test_certified_solution_is_optimal_along_the_null_space(self, spec, name):
        # checked without the solver's dual point: no feasible direction lowers the
        # penalty, and for sublinear penalties no dual bound lies below it
        A, x = self.eps0_instance(name)
        res = solve_constrained(Problem(A, A @ x, Constrained(0.0)), spec)
        assert res.info["certified"]
        best = penalty_value(spec, res.x_hat)
        if name == "no_recovery":  # refits the certificate refuses come first
            assert res.info["inner_solves"] > 1 and best < penalty_value(spec, x) * (1 - 1e-3)
        if spec.weights[1] == 0:
            # weak duality for a sublinear R: R(z) >= y^T theta / R°(A^T theta) whenever Az = y,
            # with theta the residual of a Lagrangian solve at a large multiplier
            y = A @ x
            lam = 1e4 * lambda_zero_threshold(spec, A, y, side="loss")
            theta = y - A @ solve_lagrangian(Problem(A, y, Lagrangian(lam, "loss")), spec, TIGHT).x_hat
            assert best <= float(y @ theta) / penalty_gauge_at_zero(spec, A.T @ theta) * (1 + 1e-8)
        null = np.linalg.svd(A)[2][A.shape[0]:]
        scale = np.linalg.norm(res.x_hat)
        for h in np.random.default_rng(1).standard_normal((20, null.shape[0])) @ null:
            h /= np.linalg.norm(h)
            for t in (1e-8, -1e-5, 1e-2, -1.0, 10.0):
                assert penalty_value(spec, res.x_hat + t * scale * h) >= best * (1 - 1e-12)

    def test_uncertified_walk_returns_the_last_stage(self, monkeypatch):
        # the elastic net at 10^4 on the small scaling matrix does not recover the truth
        A = devore_matrix(DeVoreParams(11, 2, 1000), normalize=False)
        x = np.zeros(1000)
        x[:3] = 1e4 * np.array([0.8147, 0.9058, 0.1270])
        spec = RegularizerSpec.elastic_net(0.8)
        inner, widths, real, lstsq = [], [], solvers.solve_lagrangian, np.linalg.lstsq

        def spy(*args, **kwargs):
            inner.append(real(*args, **kwargs))
            return inner[-1]

        def lstsq_spy(a, b, *args, **kwargs):
            widths.append(np.shape(a)[1])
            return lstsq(a, b, *args, **kwargs)

        monkeypatch.setattr(solvers, "solve_lagrangian", spy)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq_spy)
        res = solve_constrained(Problem(A, A @ x, Constrained(0.0)), spec)
        assert not res.info["certified"] and res.info["inner_solves"] == len(inner) > 1
        # no refit: the answer is the last stage as solved
        last = inner[-1]
        np.testing.assert_array_equal(res.x_hat, last.x_hat)
        assert res.residual_l2 == last.residual_l2 and res.kkt_residual == last.kkt_residual
        assert widths == []

    def test_penalty_not_above_truth(self, rng):
        # the reported objective is the penalty value and cannot exceed the
        # penalty of any feasible point, up to solver slack
        A, x, y = small_instance(rng, m=14, n=18, k=2)
        spec = RegularizerSpec.clot(0.35)
        res = solve_constrained(Problem(A, y, Constrained(0.0)), spec)
        assert res.objective <= penalty_value(spec, x) * (1 + 1e-6)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("spec", FAMILY, ids=lambda s: s.label())
    def test_positive_eps_across_family(self, spec, eps):
        A = fixture_matrix("gaussian", 20, 30, seed=7)
        x = np.zeros(30)
        x[[2, 11, 23]] = (1.5, -1.0, 0.8)
        y = A @ x + 0.1 * np.random.default_rng(7).standard_normal(20)
        tol = SolverOptions().feas_tol
        res = solve_constrained(Problem(A, y, Constrained(eps)), spec)
        assert res.converged
        assert eps * (1 - tol) <= res.residual_l2 <= eps * (1 + tol)
        assert res.info["inner_solves"] <= 15

    def test_unsettled_search_is_not_converged(self, monkeypatch):
        # every stage that lands inside the feas_tol*eps window is reported just
        # outside it, on its own side: the search cannot settle and must say so
        A = fixture_matrix("gaussian", 20, 30, seed=7)
        x = np.zeros(30)
        x[[2, 11, 23]] = (1.5, -1.0, 0.8)
        y = A @ x + 0.1 * np.random.default_rng(7).standard_normal(20)
        eps, tol = 0.05, SolverOptions().feas_tol
        real, inner = solvers.solve_lagrangian, []
        unit = math.ldexp(eps, -math.frexp(np.abs(y).max())[1])  # the stages solve at unit scale

        def outside(*args, **kwargs):
            res = real(*args, **kwargs)
            if abs(res.residual_l2 - unit) <= tol * unit:
                moved = unit + math.copysign(2 * tol * unit, res.residual_l2 - unit)
                res = dataclasses.replace(res, residual_l2=moved)
            inner.append(res)
            return res

        monkeypatch.setattr(solvers, "solve_lagrangian", outside)
        res = solve_constrained(Problem(A, y, Constrained(eps)), RegularizerSpec.clot(0.3))
        assert all(r.converged for r in inner) and res.info["inner_solves"] == len(inner)
        assert abs(res.residual_l2 - eps) > tol * eps
        assert not res.converged

    def test_info_lists_every_inner_solve(self, rng):
        A, _, y = small_instance(rng, noise=0.1)
        spec = RegularizerSpec.clot(0.3)
        trivial = solve_constrained(Problem(A, y, Constrained(2 * np.linalg.norm(y))), spec)
        assert trivial.info["inner_solves"] == 0 and trivial.info["stages"] == []
        noisy, exact = (solve_constrained(Problem(A, y, Constrained(eps)), spec) for eps in (0.3, 0.0))
        keys = {"form", "eps", "inner_solves", "stages", "feasible", "certified"}
        assert trivial.info.keys() == noisy.info.keys() == exact.info.keys() == keys
        for res in (noisy, exact):
            stages = res.info["stages"]
            assert res.info["inner_solves"] == len(stages) >= 1
            assert res.iterations == sum(it for _, _, it in stages)
            assert all(lam > 0 and r >= 0 for lam, r, _ in stages)
        assert noisy.residual_l2 in [r for _, r, _ in noisy.info["stages"]]

    def test_trivial_result_has_the_common_info_keys(self, rng):
        A, _, y = small_instance(rng, noise=0.1)
        spec = RegularizerSpec.clot(0.3)
        trivial, noisy = (solve_constrained(Problem(A, y, Constrained(eps)), spec)
                          for eps in (2 * np.linalg.norm(y), 0.3))
        assert trivial.info.keys() == noisy.info.keys()
        assert trivial.info["feasible"] and trivial.info["certified"]

    def test_options_are_frozen(self):
        assert [f.name for f in dataclasses.fields(SolverOptions)] == [
            "kkt_tol", "feas_tol"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            TIGHT.kkt_tol = 1.0

    @pytest.mark.parametrize("name, value", [
        ("kkt_tol", 0.0), ("kkt_tol", -1e-8), ("kkt_tol", math.nan), ("kkt_tol", math.inf),
        ("feas_tol", -1.0), ("feas_tol", math.nan)])
    def test_bad_options_are_refused(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverOptions(**{name: value})


class TestSolutionPath:
    def test_monotone_grid_required(self, rng):
        A, _, y = small_instance(rng)
        prob = Problem(A, y, Lagrangian(1.0))
        with pytest.raises(ValueError):
            solution_path(prob, RegularizerSpec.lasso(), [1.0, 2.0, 1.5])
        with pytest.raises(ValueError):
            solution_path(prob, RegularizerSpec.lasso(), [1.0, -0.5])

    def test_warm_equals_cold(self, rng):
        # CLOT(0.4) on 12 x 20, then every penalty of the family on 40 x 30, where the route certifies every
        # solve, each on a decreasing and an increasing penalty-side grid and a loss-side one: each predicted
        # start, corrected by the route, lands where a solve from zero does
        small, tall = small_instance(rng, noise=0.2), small_instance(rng, m=40, n=30, noise=0.2)
        for (A, _, y), spec in [(small, RegularizerSpec.clot(0.4))] + [(tall, spec) for spec in FAMILY]:
            top = lambda_zero_threshold(spec, A, y) if spec.weights[0] or spec.weights[2] else 1.0  # ridge: no zero
            for side, grid in (("penalty", top * np.logspace(0, -3, 12)), ("penalty", top * np.logspace(-3, 0, 12)),
                               ("loss", np.logspace(0, 3, 12) / top)):
                for point in solution_path(Problem(A, y, Lagrangian(1.0, side)), spec, grid, TIGHT):
                    cold = solve_lagrangian(Problem(A, y, Lagrangian(point.lam, side)), spec, TIGHT)
                    assert point.result.converged and cold.converged, (spec.label(), side, point.lam)
                    scale = max(1.0, np.linalg.norm(cold.x_hat))
                    assert np.linalg.norm(point.result.x_hat - cold.x_hat) / scale <= 1e-6, (spec.label(), side)

    @pytest.mark.parametrize("side", ["penalty", "loss"])
    def test_lasso_path_on_one_support_is_predicted_exactly(self, side):
        # a tall A and a dense truth: on this stretch every coordinate stays nonzero with its sign, so the lasso
        # answer is affine in lam (in 1/lam on the loss side), and the secant through the two answers before a
        # point is that point's answer: from the third point on, the start is certified before any round
        A = fixture_matrix("gaussian", 40, 8, seed=3)
        beta = np.array([2.0, -1.5, 1.0, 3.0, -2.5, 1.2, -1.0, 2.2])
        y, spec = A @ beta, RegularizerSpec.lasso()
        lams = np.array([0.3, 0.25, 0.22, 0.15, 0.1, 0.04, 0.01])  # unevenly spaced
        grid = lams if side == "penalty" else 1.0 / lams
        points = solution_path(Problem(A, y, Lagrangian(1.0, side)), spec, grid, TIGHT)
        for point in points:
            assert point.result.converged and np.array_equal(np.sign(point.result.x_hat), np.sign(beta))
            cold = solve_lagrangian(Problem(A, y, Lagrangian(point.lam, side)), spec, TIGHT)
            assert np.max(np.abs(point.result.x_hat - cold.x_hat)) <= 1e-12 * np.max(np.abs(beta))
        assert [p.result.iterations for p in points[2:]] == [0] * 5
        assert all(p.result.iterations for p in points[:2])

    def test_prediction_past_the_float_range_starts_from_the_last_answer(self):
        # where the next multiplier's prox threshold rounds to 0 no entry is predicted, and the solve
        # refuses the multiplier with its own message, as it does cold
        A, _ = TestConstrained.float_range_instance()
        y, lasso = A[:, 3], RegularizerSpec.lasso()
        with pytest.raises(ValueError, match="^lam=5e-324 rounds the prox threshold"):
            solution_path(Problem(A, y, Lagrangian(1.0)), lasso, [1e-320, 5e-324])
        # loss side on (1e10 A, 1e-300 y): the threshold 1/(2*lam*||A||_F^2) underflows to 0 at every point,
        # where the solves, on the objective over a power of two, are in range
        A, y = 1e10 * A, 1e-300 * (A @ TestConstrained.float_range_truth("raw"))
        for spec in (lasso, RegularizerSpec.clot(0.2), RegularizerSpec.elastic_net(0.8), RegularizerSpec.ridge()):
            top = lambda_zero_threshold(spec, A, y) if spec.weights[0] else float(np.max(np.abs(A.T @ y)))
            grid = 1.0 / (top * np.logspace(0, -3, 8))
            assert all(p.result.converged for p in solution_path(Problem(A, y, Lagrangian(1.0, "loss")), spec, grid))
        # a secant past the float range is no start: the last answer is
        ws = workspace(A, y)
        x = np.full(60, 1e308)
        assert solvers._predict(ws, lasso, Lagrangian(0.5), (Lagrangian(1.0), x), (Lagrangian(2.0), -x)) is x

    def test_zero_start_of_path(self, rng):
        A, _, y = small_instance(rng)
        spec = RegularizerSpec.lasso()
        lam_max = lambda_zero_threshold(spec, A, y)
        pts = solution_path(Problem(A, y, Lagrangian(1.0)), spec, lam_max * np.logspace(0, -2, 5), TIGHT)
        assert np.all(pts[0].result.x_hat == 0.0)

    @pytest.mark.parametrize("spec, grid", [
        # the partition covers 6 columns, the instance has more
        (RegularizerSpec.sparse_group_lasso(0.5, Partition.contiguous([3, 3])), [1.0, 0.5]),
        (RegularizerSpec.lasso(), [1.0, np.inf]),
        (RegularizerSpec.lasso(), [np.nan]),
        (RegularizerSpec.lasso(), []),
    ], ids=["wrong_dimension", "infinite", "nan", "empty"])
    def test_bad_input_raises_before_any_solve(self, rng, monkeypatch, spec, grid):
        A, _, y = small_instance(rng)

        def no_prox(*args):
            raise AssertionError("a solve started")

        monkeypatch.setattr(solvers, "prox", no_prox)
        with pytest.raises(ValueError):
            solution_path(Problem(A, y, Lagrangian(1.0)), spec, grid)

    def test_programming_errors_propagate(self, rng, monkeypatch):
        A, _, y = small_instance(rng)

        def broken_prox(*args):
            raise TypeError("broken prox")

        spec = RegularizerSpec.lasso()
        grid = lambda_zero_threshold(spec, A, y) * np.array([0.5, 0.1])  # nonzero solutions
        monkeypatch.setattr(solvers, "prox", broken_prox)
        with pytest.raises(TypeError, match="broken prox"):
            solution_path(Problem(A, y, Lagrangian(1.0)), spec, grid)
