import json
import os

import jsonschema
import numpy as np
import pytest

from clotkit import fileio
from clotkit.cli import _THREAD_VARS, EXIT_INPUT, EXIT_NOCONV, EXIT_OK, main
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
        code, env = run_cli(capsys, "solve", "--form", "constrained", "--eps", "0",
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
                "--format", "triplet", "--matrix-out", str(spt_out))
        A = fileio.read_matrix_csv(csv_out)
        B = fileio.read_triplet(spt_out)
        np.testing.assert_array_equal(A, B)

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


@pytest.mark.parametrize("argv", [
    ["matrix", "gaussian"], ["matrix", "identity", "--m", "3"],
    ["matrix", "duplicated_column", "--n", "4"], ["matrix", "devore"],
    ["experiment", "--study", "comparison", "--config", "[]"],
    ["experiment", "--study", "comparison", "--config",
     '{"name": "x", "replications": 1, "seed": 0, "methods": [], "lambda_grid": {}}'],
], ids=["gaussian", "identity", "duplicated_column", "devore", "config_list", "config_no_generator"])
def test_malformed_input_is_an_input_error(capsys, tmp_path, argv):
    if "--config" in argv:  # the config text goes to a file
        (tmp_path / "cfg.json").write_text(argv[-1])
        argv = [*argv[:-1], str(tmp_path / "cfg.json")]
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

    @pytest.mark.parametrize("flag", [["--threads=3"], ["--threads", "3"]])
    def test_threads_flag_caps_blas(self, capsys, monkeypatch, flag):
        monkeypatch.setattr(os, "environ", dict(os.environ))  # keep the cap out of later tests
        for var in ("CLOTKIT_THREADS", *_THREAD_VARS):
            monkeypatch.delenv(var, raising=False)
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
