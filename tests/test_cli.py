import json
import os
import shlex
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from clotkit import experiments, fileio
from clotkit.cli import _THREAD_VARS, EXIT_INPUT, EXIT_NOCONV, EXIT_OK, build_parser, main
from clotkit.matrices import DeVoreParams, devore_matrix

SCHEMA = json.loads(
    (__import__("importlib.resources", fromlist=["files"]).files("clotkit") / "schemas"
     / "envelope.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    envelope = json.loads(out) if out.strip() else None
    if envelope is not None:
        jsonschema.validate(envelope, SCHEMA)
    return code, envelope


@pytest.fixture()
def io_dir(tmp_path, rng):
    A = np.eye(3)
    fileio.write_matrix_csv(tmp_path / "A.csv", A)
    fileio.write_vector_csv(tmp_path / "y.csv", np.array([1.0, -0.2, 0.0]))
    return tmp_path


class TestSolveCommand:
    def test_lagrangian_solve(self, capsys, io_dir):
        code, env = run_cli(capsys, "solve", "--reg", "lasso", "--lambda", "0.3",
                            "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv"))
        assert code == EXIT_OK
        np.testing.assert_allclose(env["outputs"]["x_hat"], [0.85, -0.05, 0.0], atol=1e-8)
        assert env["outputs"]["converged"]

    def test_huge_lambda_gives_zero(self, capsys, io_dir):
        code, env = run_cli(capsys, "solve", "--reg", "lasso", "--lambda", "1e9",
                            "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv"))
        assert code == EXIT_OK
        assert env["outputs"]["x_hat"] == [0.0, 0.0, 0.0]
        assert env["outputs"]["nnz"] == 0

    def test_constrained_solve_devore(self, capsys, tmp_path):
        A = devore_matrix(DeVoreParams(5, 2), normalize=True)
        x = np.zeros(125)
        x[3] = 2.0
        fileio.write_matrix_csv(tmp_path / "dev.csv", A)
        fileio.write_vector_csv(tmp_path / "y.csv", A @ x)
        code, env = run_cli(capsys, "solve", "--eps", "0",
                            "--reg", "clot", "--mu", "0.2",
                            "-A", str(tmp_path / "dev.csv"), "-y", str(tmp_path / "y.csv"),
                            "--x-out", str(tmp_path / "xhat.csv"))
        assert code == EXIT_OK
        xhat = fileio.read_vector_csv(tmp_path / "xhat.csv")
        np.testing.assert_allclose(xhat, x, atol=1e-8)

    def test_dimension_mismatch_is_input_error(self, capsys, io_dir, tmp_path):
        fileio.write_vector_csv(tmp_path / "bad.csv", np.ones(5))
        code, _ = run_cli(capsys, "solve", "--reg", "lasso", "--lambda", "0.1",
                          "-A", str(io_dir / "A.csv"), "-y", str(tmp_path / "bad.csv"))
        assert code == EXIT_INPUT

    def test_missing_lambda_is_input_error(self, capsys, io_dir):
        code, _ = run_cli(capsys, "solve", "--reg", "lasso",
                          "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv"))
        assert code == EXIT_INPUT

    def test_lambda_and_eps_together_are_an_input_error(self, capsys, io_dir):
        code = main(["solve", "--reg", "lasso", "--lambda", "0.3", "--eps", "0.1",
                     "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv")])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and "--lambda" in err and "--eps" in err

    def test_nonconvergence_exit_code(self, capsys, tmp_path, rng):
        A = rng.standard_normal((10, 30))
        fileio.write_matrix_csv(tmp_path / "A.csv", A)
        fileio.write_vector_csv(tmp_path / "y.csv", rng.standard_normal(10))
        code, env = run_cli(capsys, "solve", "--reg", "clot", "--mu", "0.5",
                            "--lambda", "0.001", "--max-iters", "3", "--kkt-tol", "1e-14",
                            "-A", str(tmp_path / "A.csv"), "-y", str(tmp_path / "y.csv"))
        assert code == EXIT_NOCONV
        assert not env["outputs"]["converged"]

    def test_sgl_with_groups_file(self, capsys, io_dir, tmp_path):
        groups = tmp_path / "groups.json"
        groups.write_text("[[0, 1], [2]]")
        code, env = run_cli(capsys, "solve", "--reg", "sgl", "--mu", "0.5", "--lambda", "0.2",
                            "--groups", str(groups),
                            "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv"))
        assert code == EXIT_OK
        assert len(env["outputs"]["x_hat"]) == 3

    @pytest.mark.parametrize("reg", ["clot", "lasso", "ridge", "en"])
    def test_groups_rejected_without_group_penalty(self, capsys, io_dir, tmp_path, reg):
        groups = tmp_path / "groups.json"
        groups.write_text("[[0, 1], [2]]")
        code = main(["solve", "--reg", reg, "--mu", "0.5", "--lambda", "0.2",
                     "--groups", str(groups), "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv")])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert "--groups" in err and "sgl" in err and "CLOT is one group" in err

    @pytest.mark.parametrize("text", ['[[0, "x"], [2]]', '{"a": 1}', '[[0, 1], 2]'])
    def test_malformed_groups_file_is_an_input_error(self, capsys, io_dir, tmp_path, text):
        groups = tmp_path / "groups.json"
        groups.write_text(text)
        code = main(["solve", "--reg", "sgl", "--mu", "0.5", "--lambda", "0.2",
                     "--groups", str(groups), "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv")])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and "list of lists of integers" in err


class TestCertificateCommand:
    def test_published_values(self, capsys):
        code, env = run_cli(capsys, "certificate", "--t", "1.5", "--k", "3",
                            "--delta", "0.4", "--g", "1", "--mu", "0.2")
        assert code == EXIT_OK
        cert = env["outputs"]["certificate"]
        assert cert["rho"] == pytest.approx(0.6551, abs=5e-5)
        assert cert["mu_max"] == pytest.approx(0.2084, abs=5e-5)

    def test_bounds_emitted_when_requested(self, capsys):
        code, env = run_cli(capsys, "certificate", "--t", "2.0", "--k", "2",
                            "--delta", "0.3", "--mu", "0.1", "--sigma-k", "0.0",
                            "--eps", "0.5", "--p", "2.0")
        assert code == EXIT_OK
        assert env["outputs"]["bound_l1"] > 0
        assert env["outputs"]["bound_lp"] > 0

    def test_invalid_inputs(self, capsys):
        code, _ = run_cli(capsys, "certificate", "--t", "1.0", "--k", "3", "--delta", "0.4")
        assert code == EXIT_INPUT


class TestMatrixCommand:
    def test_devore_from_thresholds(self, capsys, tmp_path):
        out = tmp_path / "dev.csv"
        code, env = run_cli(capsys, "matrix", "devore", "--t", "1.5", "--k", "3",
                            "--delta", "0.4", "--n", "4000", "--r", "2",
                            "--n-truncate", "60", "--matrix-out", str(out))
        assert code == EXIT_OK
        assert env["outputs"]["p"] == 23
        assert env["outputs"]["threshold"]["threshold"] == pytest.approx(20.0, abs=1e-9)
        assert env["outputs"]["shape"] == [529, 60]
        assert fileio.read_matrix_csv(out).shape == (529, 60)

    def test_round_trip_csv_and_triplet(self, capsys, tmp_path):
        csv_out = tmp_path / "m.csv"
        spt_out = tmp_path / "m.spt"
        run_cli(capsys, "matrix", "devore", "--p", "3", "--r", "2",
                "--no-normalize", "--matrix-out", str(csv_out))
        run_cli(capsys, "matrix", "devore", "--p", "3", "--r", "2", "--no-normalize",
                "--matrix-out", str(spt_out))
        A = fileio.read_matrix_csv(csv_out)
        B = fileio.read_triplet(spt_out)
        np.testing.assert_array_equal(A, B)

    @pytest.mark.parametrize("suffix, fmt", [(".csv", "csv"), (".txt", "triplet"),
                                             (".spt", "triplet"), (".triplet", "triplet")])
    def test_suffix_picks_the_format_both_ways(self, capsys, tmp_path, suffix, fmt):
        path = tmp_path / f"m{suffix}"
        code, env = run_cli(capsys, "matrix", "devore", "--p", "3", "--r", "2",
                            "--matrix-out", str(path))
        assert code == EXIT_OK and env["outputs"]["format"] == fmt
        code, env = run_cli(capsys, "riporacle", "-A", str(path), "--k", "1")
        assert code == EXIT_OK
        reference = fileio.read_matrix_csv if fmt == "csv" else fileio.read_triplet
        np.testing.assert_array_equal(reference(path),
                                      devore_matrix(DeVoreParams(3, 2), normalize=True))

    def test_fixture_kinds(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        code, env = run_cli(capsys, "matrix", "gaussian", "--m", "6", "--n", "4",
                            "--seed", "9", "--matrix-out", str(out))
        assert code == EXIT_OK
        assert env["outputs"]["shape"] == [6, 4]


class TestRiporacleCommand:
    def test_identity(self, capsys, tmp_path):
        fileio.write_matrix_csv(tmp_path / "I.csv", np.eye(4))
        code, env = run_cli(capsys, "riporacle", "-A", str(tmp_path / "I.csv"), "--k", "2")
        assert code == EXIT_OK
        assert env["outputs"]["delta_k"] == 0.0

    def test_guard_produces_input_error(self, capsys, tmp_path):
        fileio.write_matrix_csv(tmp_path / "W.csv", np.ones((2, 80)))
        code, _ = run_cli(capsys, "riporacle", "-A", str(tmp_path / "W.csv"), "--k", "12")
        assert code == EXIT_INPUT


class TestExperimentCommand:
    def test_scaling_small(self, capsys, tmp_path):
        code, env = run_cli(capsys, "experiment", "--study", "scaling", "--small",
                            "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert all(v <= 1e-3 for v in env["outputs"]["tables"]["clot_rel_err"].values())
        assert (tmp_path / "scaling_report.json").exists()

    def test_comparison_with_config_file(self, capsys, tmp_path):
        cfg = {
            "name": "cli_tiny",
            "generator": {"beta": [2.0, 0.0, 1.0], "covariance": {"kind": "identity"},
                          "noise_sigma": 1.0, "n_train": 15, "n_val": 15, "n_test": 20},
            "replications": 2,
            "seed": 3,
            "methods": [{"kind": "lasso"}],
            "lambda_grid": {"lo": 1e-3, "hi": 1.0, "num": 5},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, env = run_cli(capsys, "experiment", "--study", "comparison",
                            "--config", str(cfg_path))
        assert code == EXIT_OK
        assert "lasso" in env["outputs"]["tables"]["median_mse"]

    def test_comparison_requires_source(self, capsys):
        code, _ = run_cli(capsys, "experiment", "--study", "comparison")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("argv, study", [
        (["--study", "grouping", "--seed", "3"], "run_grouping_paths"),
        (["--study", "paths", "--seed", "3"], "run_path_nonequivalence"),
        (["--study", "comparison", "--scenario", "example1"], "run_comparison"),
    ])
    def test_study_dispatch(self, capsys, monkeypatch, argv, study):
        calls = []
        for name in ("run_grouping_paths", "run_path_nonequivalence", "run_comparison"):
            def record(*args, _name=name, **kwargs):
                calls.append((_name, args, kwargs))
                return experiments.StudyReport(name="stub", config={}, tables={"t": {"x": 1.0}})
            monkeypatch.setattr(experiments, name, record)
        code, env = run_cli(capsys, "experiment", *argv)
        assert code == EXIT_OK and env["outputs"]["tables"] == {"t": {"x": 1.0}}
        if study == "run_comparison":
            assert calls == [(study, (experiments.load_builtin_scenario("example1"),), {})]
        else:
            assert calls == [(study, (), {"seed": 3})]

    def test_unknown_scenario_is_an_input_error(self, capsys):
        code = main(["experiment", "--study", "comparison", "--scenario", "nosuch"])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and "nosuch" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--form", "constrained", "--eps", "0", "--reg", "lasso", "-A", "A.csv", "-y", "y.csv"],
    ["matrix", "identity", "--m", "3", "--n", "3", "--format", "triplet"],
    ["experiment", "--study", "scaling", "--preset", "small"],
], ids=["solve_form", "matrix_format", "experiment_preset"])
def test_removed_options_are_parse_errors(capsys, argv):
    assert main(argv) == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_commands_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("clotkit ")]
    assert len(commands) >= 8
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


_CONFIG = {"name": "x", "replications": 1, "seed": 0,
           "generator": {"beta": [1.0, 0.0], "covariance": {"kind": "identity"}, "noise_sigma": 1.0,
                         "n_train": 5, "n_val": 5, "n_test": 5},
           "methods": [{"kind": "lasso"}], "lambda_grid": {"lo": 0.1, "hi": 1.0, "num": 3}}


@pytest.mark.parametrize("argv", [
    ["matrix", "gaussian"], ["matrix", "identity", "--m", "3"],
    ["matrix", "duplicated_column", "--n", "4"], ["matrix", "devore"],
    ["experiment", "--study", "comparison", "--config", "[]"],
    ["experiment", "--study", "comparison", "--config",
     '{"name": "x", "replications": 1, "seed": 0, "methods": [], "lambda_grid": {}}'],
    *(["experiment", "--study", "comparison", "--config", json.dumps({**_CONFIG, **field})]
      for field in ({"lambda_grid": {}}, {"generator": 5}, {"methods": ["lasso"]},
                    {"methods": [{"kind": "en"}]})),
    *(["experiment", "--study", "comparison", "--config",
       json.dumps({**_CONFIG, "generator": {**_CONFIG["generator"], **field}})]
      for field in ({"beta": 3}, {"beta": []}, {"covariance": 5}, {"covariance": {"kind": "ar1"}},
                    {"covariance": {"kind": "nosuch"}},
                    {"covariance": {"kind": "blocks", "blocks": [{"size": 3}]}},
                    {"noise_sigma": [1]}, {"noise_sigma": -1.0}, {"n_train": -3}, {"n_val": 2.5})),
    ["riporacle", "-A", "nan,0\n0,1\n", "--k", "2"],
], ids=["gaussian", "identity", "duplicated_column", "devore", "config_list", "config_no_generator",
        "config_empty_lambda_grid", "config_generator_number", "config_method_string",
        "config_en_without_mu_grid", "config_beta_number", "config_beta_empty",
        "config_covariance_number", "config_ar1_without_rho", "config_covariance_unknown_kind",
        "config_block_sizes_off", "config_noise_sigma_list", "config_noise_sigma_negative",
        "config_n_train_negative", "config_n_val_fraction", "riporacle_nan_matrix"])
def test_malformed_input_is_an_input_error(capsys, tmp_path, argv):
    for flag in ("--config", "-A"):  # the text after the flag goes to a file
        if flag in argv:
            at = argv.index(flag) + 1
            (tmp_path / "input").write_text(argv[at])
            argv = [*argv[:at], str(tmp_path / "input"), *argv[at + 1:]]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: ")


class TestEnvelope:
    def test_out_file(self, tmp_path, capsys, io_dir):
        out = tmp_path / "env.json"
        code = main(["--out", str(out), "certificate", "--t", "2.0", "--k", "1", "--delta", "0.3"])
        capsys.readouterr()
        assert code == EXIT_OK
        env = json.loads(out.read_text())
        jsonschema.validate(env, SCHEMA)
        assert env["tool"]["name"] == "clotkit"
        assert env["wall_time_s"] >= 0

    @pytest.mark.parametrize("flag, preset", [(["--threads=3"], None), (["--threads", "3"], None),
                                              (["--threads=3"], "8"), (["--threads", "3"], "8")],
                             ids=["flag0", "flag1", "flag0_preset", "flag1_preset"])
    def test_threads_flag_caps_blas(self, capsys, monkeypatch, flag, preset):
        monkeypatch.setattr(os, "environ", dict(os.environ))  # keep the cap out of later tests
        for var in ("CLOTKIT_THREADS", *_THREAD_VARS):
            monkeypatch.delenv(var, raising=False)
        if preset is not None:  # the clotkit thread count is the one source
            for var in _THREAD_VARS:
                monkeypatch.setenv(var, preset)
        code = main([*flag, "certificate", "--t", "2", "--k", "1", "--delta", "0.3"])
        capsys.readouterr()
        assert code == EXIT_OK
        assert all(os.environ[var] == "3" for var in _THREAD_VARS)

    @pytest.mark.parametrize("flag, env", [(["--threads", "0"], None), (["--threads", "-2"], None),
                                           ([], "abc"), ([], "0")],
                             ids=["flag_zero", "flag_negative", "env_text", "env_zero"])
    def test_bad_thread_count_is_an_input_error(self, capsys, monkeypatch, flag, env):
        monkeypatch.setattr(os, "environ", dict(os.environ))  # keep the cap out of later tests
        for var in ("CLOTKIT_THREADS", *_THREAD_VARS):
            monkeypatch.delenv(var, raising=False)
        if env is not None:
            monkeypatch.setenv("CLOTKIT_THREADS", env)
        code = main([*flag, "certificate", "--t", "2", "--k", "1", "--delta", "0.3"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(var in os.environ for var in _THREAD_VARS)

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT
        capsys.readouterr()
