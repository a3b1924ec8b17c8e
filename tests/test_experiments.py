import json

import numpy as np
import pytest

from clotkit.experiments import (
    SCALING_PRESETS,
    ScenarioConfig,
    bootstrap_sd_of_median,
    builtin_scenario_names,
    grouping_fixture,
    load_builtin_scenario,
    run_comparison,
    run_grouping_paths,
    run_path_nonequivalence,
    run_scaling,
)
from clotkit.matrices import DeVoreParams, devore_matrix
from clotkit.regularizers import RegularizerSpec
from clotkit.solvers import Constrained, Problem, solve_constrained


def tiny_scenario(seed=7, replications=3, noise=1.5):
    return ScenarioConfig(
        name="tiny",
        generator={
            "beta": [3.0, 1.5, 0.0, 0.0, 2.0, 0.0],
            "covariance": {"kind": "ar1", "rho": 0.5},
            "noise_sigma": noise,
            "n_train": 20,
            "n_val": 20,
            "n_test": 50,
        },
        replications=replications,
        seed=seed,
        methods=[{"kind": "lasso"}, {"kind": "clot", "mu_grid": [0.5]}],
        lambda_grid={"lo": 1e-4, "hi": 10.0, "num": 10},
    )


class TestScenarioConfig:
    def test_builtins_load(self):
        names = builtin_scenario_names()
        assert names == ["example1", "example2", "example3", "example4"]
        for name in names:
            cfg = load_builtin_scenario(name)
            assert cfg.replications == 50
            assert {m["kind"] for m in cfg.methods} == {"lasso", "en", "clot"}

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="no builtin scenario"):
            load_builtin_scenario("example9")

    def test_validation(self):
        cfg = tiny_scenario()
        d = cfg.to_dict()
        d["replications"] = 0
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict(d)
        d = cfg.to_dict()
        del d["generator"]["beta"]
        with pytest.raises(ValueError, match="beta"):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize("seed", [2.7, True, "5", -3])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        d = tiny_scenario().to_dict()
        d["seed"] = seed
        with pytest.raises(ValueError, match="seed"):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize("grid", [[1.5], [0.5, -0.1]])
    def test_mu_grid_outside_unit_interval_is_refused(self, grid):
        d = tiny_scenario().to_dict()
        d["methods"][1]["mu_grid"] = grid
        with pytest.raises(ValueError, match="mu_grid"):
            ScenarioConfig.from_dict(d)

    def test_constant_lambda_grid_is_refused(self):
        d = tiny_scenario().to_dict()
        d["lambda_grid"] = {"lo": 0.1, "hi": 0.1, "num": 5}
        with pytest.raises(ValueError, match="lambda_grid"):
            ScenarioConfig.from_dict(d)
        d["lambda_grid"]["num"] = 1
        assert ScenarioConfig.from_dict(d).lambda_grid["num"] == 1

    def test_true_support_counts_of_builtins(self):
        expected = {"example1": 3, "example2": 8, "example3": 20, "example4": 15}
        for name, nnz in expected.items():
            beta = np.asarray(load_builtin_scenario(name).generator["beta"])
            assert int(np.sum(beta != 0)) == nnz


class TestBootstrap:
    def test_matches_naive_reference(self):
        values = np.arange(20, dtype=float) ** 1.3
        got = bootstrap_sd_of_median(values, resamples=300, seed=11)
        rng = np.random.default_rng(11)
        idx = rng.integers(0, 20, size=(300, 20))
        medians = [float(np.median(values[row])) for row in idx]
        want = float(np.std(medians, ddof=1))
        assert got == pytest.approx(want, rel=1e-12)

    def test_degenerate_sizes(self):
        assert bootstrap_sd_of_median([1.0]) == 0.0


class TestComparison:
    def test_bit_exact_reproducibility(self):
        a = run_comparison(tiny_scenario())
        b = run_comparison(tiny_scenario())
        assert a.to_json() == b.to_json()

    def test_seed_changes_results(self):
        a = run_comparison(tiny_scenario(seed=7))
        b = run_comparison(tiny_scenario(seed=8))
        assert a.to_json() != b.to_json()

    def test_medians_match_records(self):
        rep = run_comparison(tiny_scenario(replications=5))
        for method in ("lasso", "clot"):
            mses = [r["mse"] for r in rep.records if r["method"] == method]
            assert rep.tables["median_mse"][method] == float(np.median(mses))
            nnzs = [r["nnz"] for r in rep.records if r["method"] == method]
            assert rep.tables["median_nnz"][method] == float(np.median(nnzs))

    def test_zero_noise_orthogonal_recovery(self):
        cfg = ScenarioConfig(
            name="exact",
            generator={
                "beta": [2.0, 0.0, -1.0, 0.0, 0.0, 0.0],
                "covariance": {"kind": "identity"},
                "noise_sigma": 0.0,
                "n_train": 40,
                "n_val": 20,
                "n_test": 30,
            },
            replications=2,
            seed=5,
            methods=[{"kind": "lasso"}, {"kind": "clot", "mu_grid": [0.2]},
                     {"kind": "en", "mu_grid": [0.9]}],
            lambda_grid={"lo": 1e-6, "hi": 1e-2, "num": 6},
        )
        rep = run_comparison(cfg)
        for method, mse in rep.tables["median_mse"].items():
            assert mse <= 1e-6, (method, mse)

    def test_report_write(self, tmp_path):
        rep = run_comparison(tiny_scenario(replications=2))
        files = rep.write(tmp_path)
        assert any(str(f).endswith("tiny_report.json") for f in files)
        payload = json.loads((tmp_path / "tiny_report.json").read_text())
        assert payload["tables"]["median_mse"].keys() == {"lasso", "clot"}


@pytest.fixture(scope="module")
def grouping_paths_report():
    return run_grouping_paths(seed=0)


@pytest.fixture(scope="module")
def nonequivalence_report():
    return run_path_nonequivalence(seed=0)


@pytest.fixture(scope="module")
def scaling_report():
    return run_scaling(preset="small")


class TestGroupingPaths:
    def test_trio_proportionality_mid_range(self, grouping_paths_report):
        spreads = grouping_paths_report.metadata["trio_spread"]
        assert spreads["clot"]["max"] < 0.15
        assert spreads["en"]["max"] < 0.15

    def test_lasso_breaks_proportionality(self, grouping_paths_report):
        lasso = grouping_paths_report.metadata["trio_spread"]["lasso"]
        worst = lasso["max_finite"]
        assert lasso["n_infinite"] > 0 or (worst is not None and worst > 0.5)

    def test_zero_solution_at_grid_start(self, grouping_paths_report):
        for label in ("clot", "en", "lasso"):
            series = grouping_paths_report.series[label]
            first = [series[f"beta{i}"][0] for i in range(1, 7)]
            assert all(v == 0.0 for v in first)

    def test_series_lengths_consistent(self, grouping_paths_report):
        for label in ("clot", "en", "lasso"):
            series = grouping_paths_report.series[label]
            n = len(series["lambda"])
            assert all(len(series[f"beta{i}"]) == n for i in range(1, 7))


class TestPathNonequivalence:
    def test_first_components_match_by_construction(self, nonequivalence_report):
        assert nonequivalence_report.metadata["max_first_component_gap"] <= 1e-8

    def test_paths_differ_on_most_of_range(self, nonequivalence_report):
        diffs = np.asarray(nonequivalence_report.series["difference"]["norm_diff"])
        norms = np.asarray(nonequivalence_report.series["difference"]["clot_norm"])
        assert nonequivalence_report.metadata["max_diff"] > 0.05 * nonequivalence_report.metadata["max_beta_norm"]
        assert np.mean(diffs > 0.01 * norms.max()) > 0.5

    def test_lambda_map_monotone(self, nonequivalence_report):
        assert nonequivalence_report.metadata["lambda_map_monotone"]
        lam_en = np.asarray(nonequivalence_report.series["lambda_map"]["lambda_en"])
        assert np.all(np.diff(lam_en) < 0)


class TestScaling:
    def test_presets_keep_m_below_quarter_n(self):
        for preset, params in SCALING_PRESETS.items():
            assert params["p"] ** 2 < params["n"] / 4, preset

    def test_clot_scales_exactly(self, scaling_report):
        for c, err in scaling_report.tables["clot_rel_err"].items():
            assert err <= 1e-3, (c, err)

    def test_en_fails_or_diverges(self, scaling_report):
        failed = any(err > 0.1 for c, err in scaling_report.tables["en_rel_err"].items() if int(c) <= 3)
        diverged = any(scaling_report.tables["en_diverged"].values())
        assert failed or diverged

    def test_clot_stops_at_the_first_stage(self, scaling_report):
        # each CLOT solve is certified at the first multiplier of the walk, and
        # that certified solve is the one the record reports
        meta = scaling_report.metadata
        params = meta["matrix"]
        A = devore_matrix(DeVoreParams(params["p"], params["r"], params["n"]), normalize=False)
        spec = RegularizerSpec.clot(meta["mu"])
        for row in scaling_report.records:
            x = np.zeros(meta["n"])
            x[:3] = 10.0 ** row["c"] * np.array(meta["true_first3"])
            res = solve_constrained(Problem(A, A @ x, Constrained(0.0)), spec)
            assert res.info["inner_solves"] == 1 and res.info["certified"], row["c"]
            assert list(res.x_hat[:3]) == row["clot"]["first3"], row["c"]

    def test_c0_recovers_published_components(self, scaling_report):
        row = next(r for r in scaling_report.records if r["c"] == 0)
        np.testing.assert_allclose(row["clot"]["first3"], (0.8147, 0.9058, 0.1270), atol=1e-6)
        np.testing.assert_allclose(row["en"]["first3"], (0.8147, 0.9058, 0.1270), atol=1e-6)

    def test_reproducible(self, scaling_report):
        again = run_scaling(preset="small")
        assert again.to_json() == scaling_report.to_json()

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            run_scaling(preset="huge")
