import dataclasses
import math

import numpy as np
import pytest

from clotkit.grouping import preprocess
from clotkit.kkt import kkt_residual
from clotkit.matrices import DeVoreParams, devore_matrix, fixture_matrix
from clotkit.regularizers import Partition, RegularizerSpec, penalty_gauge_at_zero, penalty_value, subdiff_distance
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


class TestProblemValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Problem(np.eye(3), np.ones(2), Lagrangian(1.0))

    def test_non_finite_entries(self):
        A = np.eye(2)
        bad = A.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            Problem(bad, np.ones(2), Lagrangian(1.0))
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

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_lagrangian(Problem(np.zeros((2, 2)), np.ones(2), Lagrangian(1.0)),
                             RegularizerSpec.lasso())


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

    def test_nonconvergence_is_reported_not_raised(self, rng):
        A, _, y = small_instance(rng, noise=0.3)
        res = solve_lagrangian(Problem(A, y, Lagrangian(1e-6, "penalty")),
                               RegularizerSpec.lasso(),
                               SolverOptions(kkt_tol=1e-14, max_iters=5))
        assert not res.converged
        assert np.isfinite(res.kkt_residual)

    def test_warm_start_at_solution_needs_no_iterations(self, rng):
        A, _, y = small_instance(rng, noise=0.1)
        prob = Problem(A, y, Lagrangian(0.05))
        spec = RegularizerSpec.clot(0.3)
        cold = solve_lagrangian(prob, spec, TIGHT)
        warm = solve_lagrangian(prob, spec, TIGHT, x0=cold.x_hat)
        assert cold.iterations > 0 and warm.iterations == 0
        np.testing.assert_array_equal(warm.x_hat, cold.x_hat)


class TestSolveStats:
    def test_gradient_evaluations_are_accounted_for(self, rng):
        A, _, y = small_instance(rng, noise=0.1)
        for spec in (RegularizerSpec.lasso(), RegularizerSpec.clot(0.3)):
            res = solve_lagrangian(Problem(A, y, Lagrangian(0.05)), spec, TIGHT)
            info = res.info
            assert res.converged and res.iterations > 0
            counts = ("restarts", "backtracks", "grad_evals", "newton_attempts", "newton_checks",
                      "newton_accepts")
            assert all(type(info[k]) is int for k in counts)
            # every Newton candidate costs one gradient evaluation for its certificate
            assert info["grad_evals"] == (1 + res.iterations + info["restarts"] + info["backtracks"]
                                          + info["newton_checks"])
            assert info["newton_attempts"] >= info["newton_checks"] >= info["newton_accepts"]
            assert info["step_search_exhausted"] is False

    def test_ill_conditioned_solve_restarts(self, rng):
        A = fixture_matrix("gaussian", 30, 20, seed=3) * np.logspace(0, -2, 20)
        y = A @ rng.standard_normal(20)
        res = solve_lagrangian(Problem(A, y, Lagrangian(1e-4)), RegularizerSpec.lasso(), TIGHT)
        assert res.converged
        assert res.info["restarts"] >= 1

    def test_exhausted_step_search_is_reported(self, rng):
        A, _, y = small_instance(rng, noise=0.1)
        ws = solvers._Workspace(A, y)
        ws.sigma2 *= 1e-30  # a step 1e30 too long: 60 halvings cannot repair it
        res = solve_lagrangian(Problem(A, y, Lagrangian(0.05)), RegularizerSpec.lasso(), _ws=ws)
        assert res.info["step_search_exhausted"] is True
        assert not res.converged
        assert np.all(np.isfinite(res.x_hat))


class TestNewtonFinish:
    @pytest.mark.parametrize("spec", [
        RegularizerSpec.lasso(), RegularizerSpec.elastic_net(0.5), RegularizerSpec.clot(0.3),
        RegularizerSpec.sparse_group_lasso(0.4, Partition.contiguous([5] * 8))],
        ids=["lasso", "en", "clot", "sgl"])
    def test_accepted_candidate_passes_an_independent_check(self, spec):
        A = fixture_matrix("gaussian", 30, 40, seed=11)
        beta = np.zeros(40)
        beta[[2, 3, 4, 17, 30]] = (1.5, -2.0, 1.0, 0.7, -1.2)
        y = A @ beta + 0.05 * np.random.default_rng(5).standard_normal(30)
        lam = 0.1 * lambda_zero_threshold(spec, A, y)
        opts = SolverOptions(kkt_tol=1e-8)
        res = solve_lagrangian(Problem(A, y, Lagrangian(lam)), spec, opts)
        assert res.converged and res.info["newton_accepts"] >= 1
        tol = opts.kkt_tol * max(1.0, 2.0 * float(np.max(np.abs(A.T @ y))))
        assert kkt_residual(A, y, res.x_hat, spec, lam) <= tol
        if spec.partition is not None:  # the support spans several groups
            assert len(set(spec.partition.labels[np.flatnonzero(res.x_hat)])) >= 2

    def test_tried_only_at_a_failing_check(self, monkeypatch):
        A = fixture_matrix("gaussian", 30, 40, seed=11)
        beta = np.zeros(40)
        beta[[2, 3, 4, 17, 30]] = (1.5, -2.0, 1.0, 0.7, -1.2)
        y = A @ beta + 0.05 * np.random.default_rng(5).standard_normal(30)
        spec = RegularizerSpec.clot(0.3)
        gaps, real = [], solvers._newton_candidate

        def spy(ws, spec, loss_w, pen_w, x):
            gaps.append(subdiff_distance(spec, x, -2.0 * loss_w * ws.half_grad(x), pen_w))
            return real(ws, spec, loss_w, pen_w, x)

        monkeypatch.setattr(solvers, "_newton_candidate", spy)
        grid = lambda_zero_threshold(spec, A, y) * np.logspace(-0.5, -3, 12)
        points = solution_path(Problem(A, y, Lagrangian(1.0)), spec, grid)
        assert sum(p.result.info["newton_attempts"] for p in points) == len(gaps) >= 1
        tol = SolverOptions().kkt_tol * max(1.0, 2.0 * float(np.max(np.abs(A.T @ y))))
        assert min(gaps) > tol
        # a nudged solution fails at the warm start and passes at the first
        # in-loop check with its sign pattern unchanged: nothing to try
        prob = Problem(A, y, Lagrangian(grid[-1]))
        nudged = solve_lagrangian(prob, spec, x0=points[-1].result.x_hat * (1 + 1e-7))
        assert nudged.converged and nudged.iterations == 10
        assert nudged.info["newton_attempts"] == 0

    def test_singular_support_gram_is_refused(self):
        # C6's duplicated-column fixture: the lasso keeps both twins, so A_S^T A_S is singular
        A = fixture_matrix("gaussian", 40, 5, seed=17)
        A[:, 1] = A[:, 0]
        y = A @ np.array([1.0, 1.0, -0.5, 0.0, 0.3]) + 0.05 * np.random.default_rng(17).standard_normal(40)
        pre = preprocess(A, y)
        spec = RegularizerSpec.lasso()
        lam = 0.05 * lambda_zero_threshold(spec, pre.A, pre.y)
        res = solve_lagrangian(Problem(pre.A, pre.y, Lagrangian(lam)), spec, TIGHT)
        assert res.converged
        assert res.info["newton_attempts"] >= 1 and res.info["newton_checks"] == 0
        assert res.x_hat[0] == res.x_hat[1] != 0.0
        tol = TIGHT.kkt_tol * max(1.0, 2.0 * float(np.max(np.abs(pre.A.T @ pre.y))))
        assert kkt_residual(pre.A, pre.y, res.x_hat, spec, lam) <= tol
        ws = solvers._Workspace(pre.A, pre.y)
        assert solvers._newton_candidate(ws, spec, 1.0, lam, res.x_hat) is None
        single = res.x_hat.copy()  # one twin carries both weights: a regular support Gram
        single[0], single[1] = 2.0 * single[0], 0.0
        assert solvers._newton_candidate(ws, spec, 1.0, lam, single) is not None


class TestRouting:
    def test_gram_and_direct_routing_agree(self, monkeypatch):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((60, 40))
        x = np.zeros(40)
        x[rng.choice(40, size=3, replace=False)] = rng.standard_normal(3)
        prob = Problem(A, A @ x, Constrained(0.0))
        spec = RegularizerSpec.clot(0.2)
        gram = solve_constrained(prob, spec)  # 40 <= 2*60 columns: the shape picks the Gram route
        monkeypatch.setattr(solvers, "_GRAM_MAX_N", 0)
        direct = solve_constrained(prob, spec)
        assert gram.converged and direct.converged
        np.testing.assert_allclose(gram.x_hat, direct.x_hat, rtol=0,
                                   atol=1e-6 * np.linalg.norm(direct.x_hat))
        assert max(gram.iterations, direct.iterations) <= 2 * min(gram.iterations, direct.iterations)


class TestConstrained:
    def test_zero_rhs(self):
        A = fixture_matrix("gaussian", 5, 8, seed=0)
        res = solve_constrained(Problem(A, np.zeros(5), Constrained(0.0)), RegularizerSpec.clot(0.2))
        assert np.all(res.x_hat == 0.0)
        assert res.converged

    def test_eps_larger_than_y(self, rng):
        A, _, y = small_instance(rng)
        res = solve_constrained(Problem(A, y, Constrained(np.linalg.norm(y) * 2)),
                                RegularizerSpec.lasso())
        assert np.all(res.x_hat == 0.0)

    @pytest.mark.parametrize("A, y, eps", [
        (np.array([[1.0], [0.0]]), np.array([0.0, 1.0]), 0.5),  # residual >= 1 no matter what
        (np.random.default_rng(3).standard_normal((40, 10)), np.random.default_rng(4).standard_normal(40), 0.0),
        (np.random.default_rng(3).standard_normal((40, 10)), np.random.default_rng(4).standard_normal(40), 0.5),
        (np.zeros((3, 2)), np.ones(3), 0.5),  # judged without a search
    ], ids=["2x1", "gaussian_40x10_eps0", "gaussian_40x10_eps0.5", "zero_matrix"])
    def test_infeasible_raises(self, A, y, eps):
        with pytest.raises(InfeasibleError, match="^least-squares residual"):
            solve_constrained(Problem(A, y, Constrained(eps)), RegularizerSpec.lasso())

    def test_zero_matrix_within_the_slack_is_refused(self):
        # ||y|| is above eps but within the feasibility slack: not infeasible
        y = np.full(3, 0.1)
        with pytest.raises(ValueError, match="A must be nonzero"):
            solve_constrained(Problem(np.zeros((3, 2)), y, Constrained(np.linalg.norm(y) - 5e-7)),
                              RegularizerSpec.lasso())

    @pytest.mark.parametrize("eps, name, expected", [
        (0.0, None, [3]), (0.2, None, []), (0.0, "devore_5_2", [])], ids=["0.0", "0.2", "devore_5_2"])
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
        # only the uncertified eps = 0 refit solves least squares, on the support
        # alone; a certified solve returns the refit its certificate was built from
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
        assert res.converged and res.info["polished"]
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
        assert res.converged and res.info["certified"] and res.info["polished"]
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

    def test_uncertified_walk_keeps_the_refit_rule(self, monkeypatch):
        # the elastic net at 10^4 on the small scaling matrix does not recover the truth
        A = devore_matrix(DeVoreParams(11, 2, 1000), normalize=False)
        x = np.zeros(1000)
        x[:3] = 1e4 * np.array([0.8147, 0.9058, 0.1270])
        spec = RegularizerSpec.elastic_net(0.8)
        inner, real = [], solvers.solve_lagrangian

        def spy(*args, **kwargs):
            inner.append(real(*args, **kwargs))
            return inner[-1]

        monkeypatch.setattr(solvers, "solve_lagrangian", spy)
        res = solve_constrained(Problem(A, A @ x, Constrained(0.0)), spec)
        assert not res.info["certified"] and res.info["inner_solves"] == len(inner) > 1
        last = inner[-1]
        assert res.kkt_residual == last.kkt_residual
        # the refit on the last stage's support replaces it only if no residual
        # and no penalty is lost
        support = np.abs(last.x_hat) > solvers._SUPPORT_REL_TOL * np.max(np.abs(last.x_hat))
        refit = np.zeros(1000)
        refit[support] = np.linalg.lstsq(A[:, support], A @ x, rcond=None)[0]
        r_refit = np.linalg.norm(A @ refit - A @ x)
        kept = r_refit <= last.residual_l2 * (1 + 1e-9) + 1e-14 * np.linalg.norm(A @ x) and \
            penalty_value(spec, refit) <= penalty_value(spec, last.x_hat) * (1 + 1e-9)
        assert res.info["polished"] == kept
        np.testing.assert_array_equal(res.x_hat, refit if kept else last.x_hat)

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

        def outside(*args, **kwargs):
            res = real(*args, **kwargs)
            if abs(res.residual_l2 - eps) <= tol * eps:
                moved = eps + math.copysign(2 * tol * eps, res.residual_l2 - eps)
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
        assert noisy.info.keys() == exact.info.keys()
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
        assert trivial.info["feasible"] and not trivial.info["polished"]

    def test_options_are_frozen(self):
        assert [f.name for f in dataclasses.fields(SolverOptions)] == [
            "kkt_tol", "feas_tol", "max_iters"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            TIGHT.max_iters = 1

    @pytest.mark.parametrize("name, value", [
        ("kkt_tol", 0.0), ("kkt_tol", -1e-8), ("kkt_tol", math.nan), ("kkt_tol", math.inf),
        ("feas_tol", -1.0), ("feas_tol", math.nan), ("max_iters", 0), ("max_iters", -5),
        ("max_iters", 2.5), ("max_iters", True)])
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
        A, _, y = small_instance(rng, noise=0.2)
        spec = RegularizerSpec.clot(0.4)
        lam_max = lambda_zero_threshold(spec, A, y)
        grid = lam_max * np.logspace(0, -3, 12)
        prob = Problem(A, y, Lagrangian(1.0))
        warm = solution_path(prob, spec, grid, TIGHT)
        for point in warm:
            cold = solve_lagrangian(Problem(A, y, Lagrangian(point.lam, "penalty")), spec, TIGHT)
            scale = max(1.0, np.linalg.norm(cold.x_hat))
            assert np.linalg.norm(point.result.x_hat - cold.x_hat) / scale <= 1e-6

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
