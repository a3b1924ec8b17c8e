"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Tolerances are fixed here, not tuned at runtime.
"""

import contextlib
import json
import math

import numpy as np
import pytest

from clotkit.experiments import (
    grouping_fixture,
    load_builtin_scenario,
    run_comparison,
    run_path_nonequivalence,
    run_scaling,
)
from clotkit.grouping import grouping_check, preprocess
from clotkit.matrices import DeVoreParams, devore_matrix, devore_min_prime, devore_threshold, fixture_matrix
from clotkit.regularizers import Partition, RegularizerSpec, prox, sparsity_index
from clotkit.rip import certificate, error_bounds, exact_rip, rnsp_check
from clotkit.solvers import (
    Constrained,
    Lagrangian,
    Problem,
    SolverOptions,
    lambda_zero_threshold,
    solve_constrained,
    solve_lagrangian,
)

from oracles import GOLDEN, golden_mismatches, prox_objective, prox_oracle


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_c1_certificate_reproduction():
    with criterion(1, "certificate reproduction"):
        cert = certificate(1.5, 3, 0.4, g=1, mu=0.0)
        assert cert.rho == pytest.approx(0.6551, abs=5e-5)
        assert cert.mu_max == pytest.approx(0.2084, abs=5e-5)


def test_c2_devore_reproduction():
    with criterion(2, "deterministic matrix reproduction"):
        rip_term, dim_term = devore_threshold(1.5, 3, 0.4, 4000, 2)
        assert rip_term == pytest.approx(20.0, abs=1e-9)
        assert dim_term == pytest.approx(15.87, abs=5e-3)
        assert max(rip_term, dim_term) == pytest.approx(20.0, abs=1e-9)
        assert devore_min_prime(1.5, 3, 0.4, 4000, 2) == 23
        A = devore_matrix(DeVoreParams(23, 2, 4000), normalize=False)
        assert A.shape == (529, 4000)
        sums = A.sum(axis=0)
        assert np.all(sums == 23.0)


def test_c3_exact_recovery_and_scaling():
    with criterion(3, "exact recovery and scaling"):
        report = run_scaling(preset="small")
        clot_errs = report.tables["clot_rel_err"]
        assert set(clot_errs) == {"0", "1", "2", "3", "4"}
        for c, err in clot_errs.items():
            assert err <= 1e-3, f"scale 10^{c}: CLOT relative error {err}"
        en_fail = any(err > 0.1 for c, err in report.tables["en_rel_err"].items() if int(c) <= 3)
        en_diverged = any(report.tables["en_diverged"].values())
        assert en_fail or en_diverged


def test_c4_prox_oracle_equivalence():
    with criterion(4, "prox oracle equivalence"):
        rng = np.random.default_rng(2024)
        kinds = ("l1", "en", "clot", "gl", "sgl")
        cases, answers = [], []
        for draw in range(1000):
            dim = int(rng.integers(1, 5))
            kind = kinds[draw % len(kinds)]
            mu = float(rng.uniform(0.0, 1.0))
            if kind in ("gl", "sgl") or (kind == "clot" and rng.uniform() < 0.5):
                cuts = sorted(rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim)),
                                         replace=False).tolist())
                bounds = [0, *cuts, dim]
                groups = [list(range(bounds[i], bounds[i + 1])) for i in range(len(bounds) - 1)]
            else:
                groups = [list(range(dim))]
            partition = Partition(tuple(tuple(g) for g in groups), dim) if kind in ("gl", "sgl") else None
            spec = RegularizerSpec(kind, mu, partition)
            v = rng.standard_normal(dim) * float(rng.uniform(0.2, 4.0))
            step = float(rng.uniform(0.05, 3.0))

            eff_groups = groups if kind in ("gl", "sgl") else [list(range(dim))]
            cases.append((kind, spec.mu, eff_groups, v.tolist(), step))
            answers.append(prox(spec, v, step).tolist())
        _, obj_star = prox_oracle(cases)
        worst = 0.0
        for draw, ((kind, mu, groups, v, step), z, star) in enumerate(zip(cases, answers, obj_star)):
            gap = prox_objective(kind, mu, groups, z, v, step) - star
            worst = max(worst, abs(gap))
            assert abs(gap) <= 1e-6, (draw, kind, mu, step, gap)
        print(f"  worst |objective gap| over 1000 draws: {worst:.3g}")


def test_c5_brute_force_rip_and_recovery_bound(devore_5_2, gaussian_30_36):
    with criterion(5, "brute-force RIP and recovery bound"):
        t = 2.0
        threshold = math.sqrt((t - 1.0) / t)
        fixtures = {"devore_5_2": devore_5_2, "gaussian_30_36": gaussian_30_36}
        deltas = {}
        for name, A in fixtures.items():
            deltas[name] = {k: exact_rip(A, k).delta_k for k in (1, 2, 3, 4)}
            vals = [deltas[name][k] for k in (1, 2, 3, 4)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            print(f"  {name}: " + " ".join(f"delta_{k}={deltas[name][k]:.4f}" for k in (1, 2, 3, 4)))

        passing = []
        for name, A in fixtures.items():
            for k in (1, 2):
                if deltas[name][2 * k] < threshold:
                    passing.append((name, A, k, deltas[name][2 * k]))
        print(f"  configurations passing the delta threshold: "
              f"{[(n, k) for n, _, k, _ in passing]}")

        if passing:
            for name, A, k, delta in passing:
                rho_probe = certificate(t, k, delta, 1, 0.0).rho
                mu = min(0.2, 0.5 * (1 - rho_probe) / ((1 - rho_probe) + (1 + rho_probe)))
                cert = certificate(t, k, delta, 1, mu)
                assert cert.valid, (name, k, cert.reason)
                rng = np.random.default_rng(99)
                eps = 0.05
                violations = 0
                for _ in range(100):
                    x = np.zeros(A.shape[1])
                    sup = rng.choice(A.shape[1], size=k, replace=False)
                    x[sup] = 2.0 * rng.standard_normal(k)
                    eta = rng.standard_normal(A.shape[0])
                    eta *= rng.uniform(0.0, eps) / np.linalg.norm(eta)
                    y = A @ x + eta
                    res = solve_constrained(Problem(A, y, Constrained(eps)),
                                            RegularizerSpec.clot(mu))
                    assert res.converged
                    bound, _ = error_bounds(cert, sparsity_index(x, k), eps)
                    if np.sum(np.abs(res.x_hat - x)) > bound + 1e-6:
                        violations += 1
                assert violations == 0, (name, k)
        else:
            # property-based fallback: the null-space inequality itself,
            # checked on sampled vector/support pairs
            for name, A in fixtures.items():
                for k in (1, 2):
                    cert = certificate(t, k, min(deltas[name][2 * k], 0.69), 1, 0.0)
                    rep = rnsp_check(A, k, cert.rho, cert.tau, trials=10_000, seed=5)
                    assert rep.checked >= 10_000
                    assert rep.ok, (name, k, rep.violations[:3])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["devore_5_2", "gaussian_30_36"])
def test_c5_null_space_inequality_holds_at_the_certificate(request, name, k):
    """C5's fallback check, run whether or not the delta threshold passes: at the
    certificate of delta_2k (capped at 0.69), 10,000 sampled vectors, each on its
    deciding support, satisfy the robust null-space inequality."""
    with criterion(5, f"null-space inequality, {name}, k={k}"):
        A = request.getfixturevalue(name)
        cert = certificate(2.0, k, min(exact_rip(A, 2 * k).delta_k, 0.69), 1, 0.0)
        rep = rnsp_check(A, k, cert.rho, cert.tau, trials=10_000, seed=5)
        assert rep.checked >= 10_000
        assert rep.ok, (name, k, rep.violations[:3])


@pytest.mark.parametrize("g", [1, 5, 25])
def test_c5_sgl_recovery_bound_over_groups(devore_5_2, g):
    """The SGL half of C5's recovery claim: on devore(5,2), k=1 and t=2, with g contiguous
    groups and mu = mu_max/2, where mu_max = (1 - rho)/(sqrt(g)(1 + rho)).  C5's draws
    (100 at eps=0.05, seed 99) solved by solve_constrained with SGL break the l1 bound in
    none.  The bound is about 30 times loose on these draws, so this shows that it holds,
    not that it is tight."""
    with criterion(5, f"SGL recovery bound, {g} groups"):
        A, k, t, eps = devore_5_2, 1, 2.0, 0.05
        delta = exact_rip(A, 2 * k).delta_k
        cert = certificate(t, k, delta, g, 0.5 * certificate(t, k, delta, g, 0.0).mu_max)
        assert cert.valid, cert.reason
        spec = RegularizerSpec.sparse_group_lasso(cert.mu, Partition.contiguous([A.shape[1] // g] * g))
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            x = np.zeros(A.shape[1])
            x[rng.choice(A.shape[1], size=k, replace=False)] = 2.0 * rng.standard_normal(k)
            eta = rng.standard_normal(A.shape[0])
            eta *= rng.uniform(0.0, eps) / np.linalg.norm(eta)
            res = solve_constrained(Problem(A, A @ x + eta, Constrained(eps)), spec)
            assert res.converged
            bound, _ = error_bounds(cert, sparsity_index(x, k), eps)
            worst = max(worst, np.sum(np.abs(res.x_hat - x)) / bound)
        print(f"  mu={cert.mu:.4f}: worst l1 error / bound {worst:.3g}")
        assert worst <= 1.0


def test_c6_grouping_effect_suite():
    with criterion(6, "grouping effect"):
        opts = SolverOptions(kkt_tol=1e-10)
        part = Partition.contiguous([3, 3])
        checked = 0
        for seed in range(50):
            X, y = grouping_fixture(seed=seed, n_samples=100)
            pre = preprocess(X, y)
            for spec, part_arg in ((RegularizerSpec.clot(0.5), None),
                                   (RegularizerSpec.sparse_group_lasso(0.5, part), part)):
                lam_pen = 0.1 * lambda_zero_threshold(spec, pre.A, pre.y)
                res = solve_lagrangian(Problem(pre.A, pre.y, Lagrangian(lam_pen, "penalty")),
                                       spec, opts)
                report = grouping_check(pre.A, pre.y, res.x_hat, 1.0 / lam_pen, 0.5,
                                        part_arg, slack=1e-6)
                assert report.kkt_ok, (seed, spec.label(), report.kkt_residual)
                assert not report.violations(), (seed, spec.label())
                checked += len(report.pairs)
        assert checked > 0
        print(f"  {checked} same-group pairs checked across 50 seeds, zero violations")

        # duplicated column within one group gets an identical weight
        rng = np.random.default_rng(17)
        A = fixture_matrix("gaussian", 40, 5, seed=17)
        A[:, 1] = A[:, 0]
        y = A @ np.array([1.0, 1.0, -0.5, 0.0, 0.3]) + 0.05 * rng.standard_normal(40)
        pre = preprocess(A, y)
        spec = RegularizerSpec.clot(0.5)
        lam_pen = 0.05 * lambda_zero_threshold(spec, pre.A, pre.y)
        res = solve_lagrangian(Problem(pre.A, pre.y, Lagrangian(lam_pen, "penalty")), spec, opts)
        assert res.x_hat[0] != 0.0
        assert abs(res.x_hat[0] - res.x_hat[1]) <= 1e-5


def test_c7_comparison_study_orderings():
    with criterion(7, "comparison-study orderings"):
        mse_ok = 0
        nnz_ok = 0
        for name in ("example1", "example2", "example3", "example4"):
            report = run_comparison(load_builtin_scenario(name))
            if name == "example4":  # the golden record is checked on this run
                golden = json.loads((GOLDEN / "comparison_example4.json").read_text())
                assert golden_mismatches(golden, json.loads(report.to_json())) == []
            mse = report.tables["median_mse"]
            nnz = report.tables["median_nnz"]
            print(f"  {name}: median mse lasso={mse['lasso']:.2f} clot={mse['clot']:.2f} "
                  f"en={mse['en']:.2f} | median nnz lasso={nnz['lasso']:g} "
                  f"clot={nnz['clot']:g} en={nnz['en']:g}")
            if mse["lasso"] > mse["clot"] and mse["lasso"] > mse["en"]:
                mse_ok += 1
            if nnz["lasso"] < nnz["clot"] < nnz["en"]:
                nnz_ok += 1
        print(f"  mse ordering holds on {mse_ok}/4, support ordering on {nnz_ok}/4")
        assert mse_ok >= 3
        assert nnz_ok >= 3


def test_c8_path_nonequivalence():
    with criterion(8, "path nonequivalence"):
        report = run_path_nonequivalence(seed=0)
        assert report.metadata["max_first_component_gap"] <= 1e-8
        assert report.metadata["lambda_map_monotone"]
        max_diff = report.metadata["max_diff"]
        scale = report.metadata["max_beta_norm"]
        print(f"  max path difference {max_diff:.3f} vs threshold {0.05 * scale:.3f}")
        assert max_diff > 0.05 * scale


def test_c9_homogeneity_and_identity_suite(rng):
    with criterion(9, "homogeneity and identity properties"):
        # scale equivariance of the constrained CLOT program, on a gaussian
        # instance that also keeps m below n/4
        A = fixture_matrix("gaussian", 14, 60, seed=21)
        assert A.shape[0] < A.shape[1] / 4
        x = np.zeros(60)
        x[[3, 41]] = (1.0, -2.0)
        y = A @ x
        spec = RegularizerSpec.clot(0.2)
        base = solve_constrained(Problem(A, y, Constrained(0.0)), spec).x_hat
        for c in (10.0, 100.0, 1000.0):
            scaled = solve_constrained(Problem(A, c * y, Constrained(0.0)), spec).x_hat
            rel = np.linalg.norm(scaled - c * base) / (c * np.linalg.norm(base))
            assert rel <= 1e-6, (c, rel)

        # identity reductions, in penalty values and in solver output
        from clotkit.regularizers import penalty_value

        part4 = Partition.contiguous([2, 2])
        pairs = [
            (RegularizerSpec.clot(0.0), RegularizerSpec.lasso(), None),
            (RegularizerSpec.sparse_group_lasso(0.37, Partition.single(60)),
             RegularizerSpec.clot(0.37), None),
            (RegularizerSpec.sparse_group_lasso(1.0, part4),
             RegularizerSpec.group_lasso(part4), 4),
        ]
        for spec_a, spec_b, dim in pairs:
            for _ in range(25):
                z = rng.standard_normal(dim or 60)
                assert abs(penalty_value(spec_a, z) - penalty_value(spec_b, z)) <= 1e-10

        opts = SolverOptions(kkt_tol=1e-10)
        y_noisy = y + 0.1 * np.random.default_rng(3).standard_normal(14)
        for spec_a, spec_b in ((RegularizerSpec.clot(0.0), RegularizerSpec.lasso()),
                               (RegularizerSpec.sparse_group_lasso(0.37, Partition.single(60)),
                                RegularizerSpec.clot(0.37))):
            ra = solve_lagrangian(Problem(A, y_noisy, Lagrangian(0.05, "penalty")), spec_a, opts)
            rb = solve_lagrangian(Problem(A, y_noisy, Lagrangian(0.05, "penalty")), spec_b, opts)
            assert np.max(np.abs(ra.x_hat - rb.x_hat)) <= 1e-8

        A4 = fixture_matrix("gaussian", 10, 4, seed=5)
        y4 = A4 @ np.array([1.0, -0.5, 0.0, 0.25]) + 0.05 * np.random.default_rng(4).standard_normal(10)
        ra = solve_lagrangian(Problem(A4, y4, Lagrangian(0.1, "penalty")),
                              RegularizerSpec.sparse_group_lasso(1.0, part4), opts)
        rb = solve_lagrangian(Problem(A4, y4, Lagrangian(0.1, "penalty")),
                              RegularizerSpec.group_lasso(part4), opts)
        assert np.max(np.abs(ra.x_hat - rb.x_hat)) <= 1e-8
