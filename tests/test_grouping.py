import numpy as np
import pytest

from clotkit.experiments import grouping_fixture
from clotkit.grouping import grouping_bound, grouping_check, preprocess
from clotkit.matrices import fixture_matrix
from clotkit.regularizers import Partition, RegularizerSpec
from clotkit.solvers import Lagrangian, Problem, SolverOptions, lambda_zero_threshold, solve_lagrangian

TIGHT = SolverOptions(kkt_tol=1e-10)


def solve_std(A, y, spec, lam_pen):
    res = solve_lagrangian(Problem(A, y, Lagrangian(lam_pen, "penalty")), spec, TIGHT)
    return res


class TestPreprocess:
    def test_centered_input_unchanged(self, rng):
        A = fixture_matrix("gaussian", 10, 4, seed=0)
        y = rng.standard_normal(10)
        y -= y.mean()
        pre = preprocess(A, y)
        np.testing.assert_allclose(pre.y, y, atol=1e-15)

    def test_random_fixture_postconditions(self, rng):
        A = rng.standard_normal((30, 6)) * 3 + 1.0
        y = rng.standard_normal(30) + 5.0
        pre = preprocess(A, y)
        assert abs(pre.y.sum()) <= 1e-12 * max(1.0, np.linalg.norm(pre.y))
        np.testing.assert_allclose(np.linalg.norm(pre.A, axis=0), 1.0, atol=1e-12)
        # scaling factors map standardized coefficients back to raw ones
        np.testing.assert_allclose(pre.A * pre.column_norms, A, atol=1e-12)

    def test_constant_column_rejected(self, rng):
        A = rng.standard_normal((10, 3))
        A[:, 1] = 2.5
        with pytest.raises(ValueError, match="column 1 is constant"):
            preprocess(A, rng.standard_normal(10))

    def test_zero_column_rejected(self, rng):
        A = rng.standard_normal((10, 3))
        A[:, 2] = 0.0
        with pytest.raises(ValueError, match="constant"):
            preprocess(A, rng.standard_normal(10))


    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="A must be m-by-n and y length m"):
            preprocess(rng.standard_normal((10, 3)), rng.standard_normal(9))


class TestGroupingBound:
    def test_monotone_decreasing_in_rho_and_mu(self):
        bounds_rho = [grouping_bound(r, 1.0, 0.5) for r in (0.0, 0.5, 0.9, 0.999)]
        assert all(b1 > b2 for b1, b2 in zip(bounds_rho, bounds_rho[1:]))
        bounds_mu = [grouping_bound(0.5, 1.0, m) for m in (0.1, 0.5, 1.0)]
        assert all(b1 > b2 for b1, b2 in zip(bounds_mu, bounds_mu[1:]))

    def test_gl_bound_smallest(self):
        # with the same solution norm, the bound is minimized at mu = 1
        assert grouping_bound(0.9, 2.0, 1.0) < grouping_bound(0.9, 2.0, 0.5)

    def test_perfect_correlation_gives_zero(self):
        assert grouping_bound(1.0, 3.0, 0.5) == 0.0

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError, match="mu must be positive"):
            grouping_bound(0.5, 1.0, 0.0)


class TestGroupingCheck:
    def test_duplicated_columns_same_group_equal_weights(self, rng):
        A = fixture_matrix("gaussian", 40, 5, seed=7)
        A[:, 1] = A[:, 0]
        beta = np.array([1.0, 1.0, -0.5, 0.0, 0.3])
        y = A @ beta + 0.05 * rng.standard_normal(40)
        pre = preprocess(A, y)
        spec = RegularizerSpec.clot(0.5)
        lam_pen = 0.05 * lambda_zero_threshold(spec, pre.A, pre.y)
        res = solve_std(pre.A, pre.y, spec, lam_pen)
        assert res.x_hat[0] != 0.0
        assert abs(res.x_hat[0] - res.x_hat[1]) <= 1e-5
        report = grouping_check(pre.A, pre.y, res.x_hat, 1.0 / lam_pen, 0.5, None)
        assert report.kkt_ok
        pair = next(p for p in report.pairs if (p.i, p.j) == (0, 1))
        assert pair.rho_ij == pytest.approx(1.0, abs=1e-12)
        assert pair.holds

    def test_fixture_no_violations_clot_and_sgl(self):
        for seed in (0, 1):
            X, y = grouping_fixture(seed=seed, n_samples=100)
            pre = preprocess(X, y)
            part = Partition.contiguous([3, 3])
            for spec, part_arg in ((RegularizerSpec.clot(0.5), None),
                                   (RegularizerSpec.sparse_group_lasso(0.5, part), part)):
                lam_pen = 0.1 * lambda_zero_threshold(spec, pre.A, pre.y)
                res = solve_std(pre.A, pre.y, spec, lam_pen)
                report = grouping_check(pre.A, pre.y, res.x_hat, 1.0 / lam_pen, 0.5, part_arg,
                                        slack=1e-6)
                assert report.kkt_ok
                assert report.pairs, "expected active same-group pairs"
                assert not report.violations()

    def test_sign_flip_convention(self):
        # columns 1 and 2 of the fixture carry opposite signs of the factor
        X, y = grouping_fixture(seed=2, n_samples=100)
        pre = preprocess(X, y)
        spec = RegularizerSpec.clot(0.5)
        lam_pen = 0.1 * lambda_zero_threshold(spec, pre.A, pre.y)
        res = solve_std(pre.A, pre.y, spec, lam_pen)
        report = grouping_check(pre.A, pre.y, res.x_hat, 1.0 / lam_pen, 0.5, None)
        pair = next(p for p in report.pairs if (p.i, p.j) == (0, 1))
        assert pair.sign_flipped_j
        assert pair.rho_ij > 0.9
        assert pair.holds

    def test_cross_group_duplicates_may_differ(self, rng):
        # the same column planted in two different groups gets unequal weights
        u = rng.standard_normal(60)
        u /= np.linalg.norm(u)
        B = fixture_matrix("gaussian", 60, 2, seed=3)
        A = np.column_stack([u, B[:, 0], u, B[:, 1]])
        part = Partition(((0, 1), (2, 3)), 4)
        beta = np.array([1.2, 0.8, 1.2, -0.6])
        y = A @ beta + 0.02 * rng.standard_normal(60)
        pre = preprocess(A, y)
        spec = RegularizerSpec.sparse_group_lasso(0.5, part)
        lam_pen = 0.08 * lambda_zero_threshold(spec, pre.A, pre.y)
        res = solve_std(pre.A, pre.y, spec, lam_pen)
        report = grouping_check(pre.A, pre.y, res.x_hat, 1.0 / lam_pen, 0.5, part,
                                include_cross_group=True)
        assert report.kkt_ok
        cross = next(p for p in report.pairs if (p.i, p.j) == (0, 2))
        assert not cross.same_group
        assert cross.rho_ij == pytest.approx(1.0, abs=1e-12)
        # identical columns, different groups: weights genuinely differ
        assert abs(res.x_hat[0] - res.x_hat[2]) > 1e-3
        assert not report.violations()  # same-group pairs still fine

    def test_kkt_precheck_failure_skips_pairs(self, rng):
        X, y = grouping_fixture(seed=0, n_samples=50)
        pre = preprocess(X, y)
        garbage = rng.standard_normal(6)
        report = grouping_check(pre.A, pre.y, garbage, 1.0, 0.5, None)
        assert not report.kkt_ok
        assert report.pairs == []

    def test_requires_standardized_inputs(self, rng):
        X, y = grouping_fixture(seed=0, n_samples=50)
        with pytest.raises(ValueError, match="unit norm"):
            grouping_check(X, y - y.mean(), np.zeros(6), 1.0, 0.5, None)
        pre = preprocess(X, y)
        with pytest.raises(ValueError, match="centered"):
            grouping_check(pre.A, pre.y + 1.0, np.zeros(6), 1.0, 0.5, None)

    def test_mu_zero_rejected(self, rng):
        X, y = grouping_fixture(seed=0, n_samples=50)
        pre = preprocess(X, y)
        with pytest.raises(ValueError, match="mu"):
            grouping_check(pre.A, pre.y, np.zeros(6), 1.0, 0.0, None)

    @pytest.mark.parametrize("lam, partition, match", [
        (0.0, None, "lam must be positive"),
        (1.0, Partition.single(5), "vector has length 6 but the partition covers 5"),
    ], ids=["lam_zero", "partition_size"])
    def test_bad_arguments_rejected(self, lam, partition, match):
        pre = preprocess(*grouping_fixture(seed=0, n_samples=50))
        with pytest.raises(ValueError, match=match):
            grouping_check(pre.A, pre.y, np.zeros(6), lam, 0.5, partition)
