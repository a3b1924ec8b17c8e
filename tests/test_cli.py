import json
import math
import os
import shlex
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import clotkit
from clotkit import experiments, fileio, solvers
from clotkit.cli import _THREAD_VARS, EXIT_INPUT, EXIT_NOCONV, EXIT_OK, build_parser, main
from clotkit.matrices import DeVoreParams, devore_matrix, fixture_matrix
from clotkit.regularizers import RegularizerSpec

SCHEMA = json.loads(
    (__import__("importlib.resources", fromlist=["files"]).files("clotkit") / "schemas"
     / "envelope.schema.json").read_text()
)


def strict_json(text):
    """Parse JSON, refusing the ``NaN``, ``Infinity`` and ``-Infinity`` that ``json.loads`` accepts."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    envelope = strict_json(out) if out.strip() else None
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

    def test_nnz_counts_the_support(self, capsys, io_dir, monkeypatch):
        # the rule the studies count nonzeros by: entries above 1e-6 times the largest
        stub = solvers.SolveResult(np.array([1.0, 1e-9, 0.0]), 0.0, 0.0, 1, 0.0, True, {})
        monkeypatch.setattr(solvers, "solve_lagrangian", lambda *args, **kwargs: stub)
        code, env = run_cli(capsys, "solve", "--reg", "lasso", "--lambda", "0.3",
                            "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv"))
        assert code == EXIT_OK and env["outputs"]["nnz"] == 1

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

    @pytest.mark.parametrize("side, expected", [("loss", EXIT_INPUT), ("penalty", EXIT_OK)])
    def test_lambda_side_goes_with_lambda_only(self, capsys, io_dir, side, expected):
        code = main(["solve", "--reg", "lasso", "--eps", "0.1", "--lambda-side", side,
                     "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv")])
        out, err = capsys.readouterr()
        assert code == expected
        if expected == EXIT_INPUT:
            assert out == "" and err.startswith("error:") and "--lambda-side" in err

    @pytest.mark.parametrize("form, expected", [(("--lambda", "0.1"), EXIT_INPUT), (("--eps", "0.1"), EXIT_OK)],
                             ids=["lambda", "eps"])
    def test_feas_tol_goes_with_eps_only(self, capsys, io_dir, form, expected):
        # the multiplier form reads no noise budget, so its slack is refused rather than echoed
        code = main(["solve", "--reg", "lasso", *form, "--feas-tol", "0.5",
                     "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv")])
        out, err = capsys.readouterr()
        assert code == expected
        if expected == EXIT_INPUT:
            assert out == "" and err.startswith("error:") and "--feas-tol" in err

    def test_nonconvergence_exit_code(self, capsys, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(solvers, "_ROUTE_ROUNDS", 3)
        A = rng.standard_normal((10, 30))
        fileio.write_matrix_csv(tmp_path / "A.csv", A)
        fileio.write_vector_csv(tmp_path / "y.csv", rng.standard_normal(10))
        code, env = run_cli(capsys, "solve", "--reg", "clot", "--mu", "0.5",
                            "--lambda", "0.001", "--kkt-tol", "1e-14",
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

    @pytest.mark.parametrize("reg, mu", [("lasso", "0.7"), ("l1", "0.3"), ("ridge", "0.5"),
                                         ("l2sq", "1"), ("gl", "0.5")])
    def test_mu_the_kind_does_not_keep_is_an_input_error(self, capsys, io_dir, tmp_path, reg, mu):
        groups = tmp_path / "groups.json"
        groups.write_text("[[0, 1], [2]]")
        extra = ["--groups", str(groups)] if reg == "gl" else []
        code = main(["solve", "--reg", reg, "--mu", mu, "--lambda", "0.2", *extra,
                     "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv")])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and f"--reg {reg} keeps mu=" in err and f"--mu {mu}" in err

    def test_the_mu_gl_keeps_is_accepted(self, capsys, io_dir, tmp_path):
        groups = tmp_path / "groups.json"
        groups.write_text("[[0, 1], [2]]")
        code, env = run_cli(capsys, "solve", "--reg", "gl", "--mu", "1", "--lambda", "0.2",
                            "--groups", str(groups), "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv"))
        assert code == EXIT_OK and env["config"]["mu"] == 1.0

    def test_loss_side_lambda_reaches_the_solver(self, capsys, io_dir):
        code, env = run_cli(capsys, "solve", "--reg", "lasso", "--lambda", "2", "--lambda-side", "loss",
                            "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv"))
        assert code == EXIT_OK
        problem = solvers.Problem(np.eye(3), np.array([1.0, -0.2, 0.0]), solvers.Lagrangian(2.0, "loss"))
        expected = solvers.solve_lagrangian(problem, RegularizerSpec.lasso()).x_hat
        np.testing.assert_array_equal(env["outputs"]["x_hat"], expected)
        # 2*||y - x||^2 + ||x||_1 soft-thresholds y at 1/4; the penalty side would at 1
        np.testing.assert_allclose(expected, [0.75, 0.0, 0.0], atol=1e-8)

    def test_loss_side_lambda_at_the_top_of_the_float_range(self, capsys, tmp_path):
        # the certificate's tolerance, kkt_tol*2*lam*||A^T y||_inf in the caller's units, is past the float range
        # at lam = 1e308: the solve checks it on its objective over 2^e, e the exponent of lam
        A, x = fixture_matrix("gaussian", 30, 60, seed=0), np.zeros(60)
        x[[3, 17, 40]] = (1.0, -2.0, 0.5)
        fileio.write_matrix_csv(tmp_path / "A.csv", A)
        fileio.write_vector_csv(tmp_path / "y.csv", A @ x)
        x_hat = {}
        for lam in ("1e300", "1e308"):
            code, env = run_cli(capsys, "solve", "--reg", "lasso", "--lambda", lam, "--lambda-side", "loss",
                                "-A", str(tmp_path / "A.csv"), "-y", str(tmp_path / "y.csv"))
            out = env["outputs"]
            assert code == EXIT_OK and out["converged"] and out["kkt_residual"] is not None, (lam, out)
            x_hat[lam] = np.array(out["x_hat"])
        assert np.max(np.abs(x_hat["1e308"] - x_hat["1e300"])) <= 1e-12 * np.max(np.abs(x_hat["1e300"]))
        assert np.max(np.abs(x_hat["1e308"] - x)) <= 1e-12 * 2.0

    def test_lambda_whose_prox_threshold_rounds_to_zero_is_an_input_error(self, capsys, tmp_path):
        A = np.random.default_rng(0).standard_normal((30, 60))
        fileio.write_matrix_csv(tmp_path / "A.csv", A)
        fileio.write_vector_csv(tmp_path / "y.csv", A[:, 3])
        code = main(["solve", "--reg", "lasso", "--lambda", "5e-324",
                     "-A", str(tmp_path / "A.csv"), "-y", str(tmp_path / "y.csv")])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: lam=5e-324 ")

    @pytest.mark.parametrize("scale, expected", [("1e-308", EXIT_OK), ("1e-309", EXIT_NOCONV), ("1e-310", EXIT_NOCONV)])
    def test_elastic_net_at_the_bottom_of_the_float_range(self, capsys, tmp_path, scale, expected):
        # EN is not homogeneous, so y keeps its scale: at 1e-308 the first multiplier, 1.7e308, certifies the
        # truth; below it the multiplier that would move EN off zero is past the float range, and the walk
        # stops at the largest float, unconverged
        A, x = fixture_matrix("gaussian", 30, 60, seed=0), np.zeros(60)
        x[[3, 17, 40]] = (1.0, -2.0, 0.5)
        fileio.write_matrix_csv(tmp_path / "A.csv", A)
        fileio.write_vector_csv(tmp_path / "y.csv", A @ (float(scale) * x))
        code, env = run_cli(capsys, "solve", "--reg", "en", "--mu", "0.8", "--eps", "0",
                            "-A", str(tmp_path / "A.csv"), "-y", str(tmp_path / "y.csv"))
        out = env["outputs"]
        assert code == expected and out["converged"] == out["info"]["certified"] == (expected == EXIT_OK), out
        if expected == EXIT_OK:
            assert np.max(np.abs(np.array(out["x_hat"]) / float(scale) - x)) <= 1e-12 * 2.0

    @pytest.mark.parametrize("text", ['[[0, "x"], [2]]', '{"a": 1}', '[[0, 1], 2]'])
    def test_malformed_groups_file_is_an_input_error(self, capsys, io_dir, tmp_path, text):
        groups = tmp_path / "groups.json"
        groups.write_text(text)
        code = main(["solve", "--reg", "sgl", "--mu", "0.5", "--lambda", "0.2",
                     "--groups", str(groups), "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv")])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and "list of lists of integers" in err

    @pytest.mark.parametrize("text", ["[]", "[[]]"])
    def test_empty_groups_are_named(self, capsys, io_dir, tmp_path, text):
        groups = tmp_path / "groups.json"
        groups.write_text(text)
        code = main(["solve", "--reg", "sgl", "--mu", "0.5", "--lambda", "0.2",
                     "--groups", str(groups), "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv")])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and "group" in err

    @pytest.mark.parametrize("flag, value", [("--kkt-tol", "nan"), ("--kkt-tol", "0"),
                                             ("--feas-tol", "-1"), ("--feas-tol", "inf")])
    def test_bad_solver_option_is_named(self, capsys, io_dir, flag, value):
        code = main(["solve", "--reg", "lasso", "--eps", "0.5", flag, value,
                     "-A", str(io_dir / "A.csv"), "-y", str(io_dir / "y.csv")])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and flag[2:].replace("-", "_") in err


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

    def test_invalid_certificate_gives_null_bounds(self, capsys):
        code, env = run_cli(capsys, "certificate", "--t", "1.5", "--k", "3", "--delta", "0.4",
                            "--mu", "0.2", "--sigma-k", "0.1")
        assert code == EXIT_OK
        assert not env["outputs"]["certificate"]["valid"]
        assert env["outputs"]["bound_l1"] is None and env["outputs"]["bound_lp"] is None


    _VALID = ["--t", "2.0", "--k", "2", "--delta", "0.3", "--mu", "0.1"]

    @pytest.mark.parametrize("argv, keys", [
        ([*_VALID, "--sigma-k", "0.0", "--eps", "0.5"], {"certificate", "bound_l1", "bound_lp", "p"}),
        ([*_VALID, "--eps", "0.5"], {"certificate", "bound_l1", "bound_lp", "p"}),
        (["--t", "1.5", "--k", "3", "--delta", "0.4", "--mu", "0.2", "--sigma-k", "0.1"],
         {"certificate", "bound_l1", "bound_lp"}),
        (_VALID, {"certificate"}),
    ], ids=["valid", "valid_eps_only", "invalid", "no_bounds_asked"])
    def test_output_keys(self, capsys, argv, keys):
        code, env = run_cli(capsys, "certificate", *argv)
        outputs = env["outputs"]
        assert code == EXIT_OK and set(outputs) == keys
        if "bound_l1" in keys:
            valid = outputs["certificate"]["valid"]
            assert valid == ("p" in keys)
            assert all((outputs[k] > 0) if valid else (outputs[k] is None) for k in ("bound_l1", "bound_lp"))

    def test_p_without_bounds_is_an_input_error(self, capsys):
        # --p is read only by the bounds, so an out-of-range value was echoed and never checked
        code = main(["certificate", "--t", "2", "--k", "1", "--delta", "0.3", "--p", "7"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("error: ") and "--p" in captured.err

    def test_bounds_default_to_p_2(self, capsys):
        code, env = run_cli(capsys, "certificate", "--t", "2", "--k", "1", "--delta", "0.3", "--eps", "0.1")
        assert code == EXIT_OK and env["outputs"]["p"] == 2.0


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

    @pytest.mark.parametrize("strict, p", [(False, 5), (True, 7)])
    def test_strict_bumps_a_prime_threshold(self, capsys, strict, p):
        # (ceil(t*k) - 1) * r / delta = 3/0.6 = 5, itself a prime, beats n^(1/(r+1)) = sqrt(2)
        code, env = run_cli(capsys, "matrix", "devore", "--t", "2", "--k", "2", "--delta", "0.6",
                            "--n", "2", "--r", "1", *(["--strict"] if strict else []))
        assert code == EXIT_OK
        assert env["outputs"]["threshold"]["threshold"] == pytest.approx(5.0)
        assert env["outputs"]["p"] == p

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

    @pytest.mark.parametrize("argv, flag", [
        (["gaussian", "--m", "3", "--n", "4", "--p", "7"], "--p"),
        (["identity", "--m", "3", "--n", "3", "--strict"], "--strict"),
        (["identity", "--m", "3", "--n", "3", "--n-truncate", "2"], "--n-truncate"),
        (["duplicated_column", "--m", "4", "--n", "3", "--no-normalize"], "--no-normalize"),
        (["devore", "--p", "5", "--m", "4"], "--m"),
        (["devore", "--p", "5", "--strict", "--t", "9"], "--strict"),
    ], ids=["p_gaussian", "strict_identity", "n_truncate_identity", "no_normalize_duplicated", "m_devore",
            "strict_with_p"])
    def test_option_the_kind_does_not_read_is_an_input_error(self, capsys, tmp_path, argv, flag):
        out = tmp_path / "m.csv"
        code = main(["matrix", *argv, "--matrix-out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: matrix {argv[0]} ") and flag in captured.err

    @pytest.mark.parametrize("argv, shown", [
        (["--t", "inf"], "t=inf"), (["--t", "1e308", "--k", "3"], "t=1e+308"), (["--t", "nan"], "t=nan"),
        (["--delta", "nan"], "delta must lie in (0, 1), got nan"),
        (["--t", "1e308", "--k", "1"], "t=1e+308"), (["--t", "1e308", "--k", "1", "--r", "1"], "t=1e+308"),
    ], ids=["t_inf", "t_k_overflow", "t_nan", "delta_nan", "rip_term_int_overflow", "rip_term_inf"])
    def test_non_finite_threshold_input_is_an_input_error(self, capsys, argv, shown):
        # main reports only ValueError and OSError: an OverflowError from math.ceil(t * k), from
        # (ceil(t*k) - 1) * r / delta or from the ceil of an infinite threshold would escape it
        code = main(["matrix", "devore", "--n", "100", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("error: ") and shown in captured.err

    @pytest.mark.parametrize("argv, shown", [
        (["--t", "1e20", "--k", "1", "--n", "100"], "t=1e+20"),
        (["--p", "1000000000000000003", "--n", "10"], "p=1000000000000000003"),
        (["--p", "1000003", "--n", "10"], "p=1000003"), (["--p", "101"], "p=101, r=2, n_truncate=None"),
    ], ids=["threshold", "prime_test", "rows", "columns"])
    def test_a_matrix_past_the_size_cap_is_an_input_error(self, capsys, tmp_path, argv, shown):
        # each once hung in the prime search or ended in numpy's allocation error, which main does not report
        out = tmp_path / "m.csv"
        code = main(["matrix", "devore", *argv, "--matrix-out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and shown in captured.err

    def test_a_large_degree_the_size_cap_admits_is_built(self, capsys, tmp_path):
        # once an OverflowError traceback from the digit loop, 5**i for i up to r
        out = tmp_path / "m.csv"
        code, env = run_cli(capsys, "matrix", "devore", "--p", "5", "--r", "100000", "--n", "10",
                            "--matrix-out", str(out))
        assert code == EXIT_OK and env["outputs"]["shape"] == [25, 10]
        np.testing.assert_array_equal(fileio.read_matrix_csv(out), devore_matrix(DeVoreParams(5, 1, 10)))

    @pytest.mark.parametrize("flag", ["--n-truncate", "--n"])
    def test_zero_columns_is_an_input_error(self, capsys, tmp_path, flag):
        # an explicit 0 once read as "not given" and wrote all 27 columns
        out = tmp_path / "m.csv"
        code = main(["matrix", "devore", "--p", "3", flag, "0", "--matrix-out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and "n_truncate=0" in captured.err

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

    def test_reports_the_supports_visited(self, capsys, tmp_path):
        # the 18-cycle's edge-incidence matrix never reaches its ceiling, so every support is visited
        fileio.write_matrix_csv(tmp_path / "C.csv", np.eye(18) + np.roll(np.eye(18), 1, axis=0))
        code, env = run_cli(capsys, "riporacle", "-A", str(tmp_path / "C.csv"), "--k", "3")
        assert code == EXIT_OK
        assert env["outputs"]["argmax_support"] == [0, 1, 2]
        assert env["outputs"]["supports"] == math.comb(18, 3)

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

    def test_grouping_report_file_is_strict_json(self, capsys, tmp_path):
        code, env = run_cli(capsys, "experiment", "--study", "grouping", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        report = strict_json((tmp_path / "grouping_paths_report.json").read_text())
        assert report["metadata"]["trio_spread"]["lasso"]["max"] is None  # the lasso's ratio is unbounded
        assert report["metadata"] == env["outputs"]["metadata"]

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

    @pytest.mark.parametrize("argv, flag", [
        (["--study", "grouping", "--small", "--config", "nonexistent.json"], "--config"),
        (["--study", "paths", "--scenario", "example1"], "--scenario"),
        (["--study", "scaling", "--small", "--config", "cfg.json"], "--config"),
        (["--study", "grouping", "--small"], "--small"),
        (["--study", "comparison", "--scenario", "example1", "--small"], "--small"),
    ])
    def test_options_of_another_study_are_input_errors(self, capsys, monkeypatch, argv, flag):
        for name in ("run_grouping_paths", "run_path_nonequivalence", "run_comparison", "run_scaling"):
            monkeypatch.setattr(experiments, name, lambda *args, **kwargs: pytest.fail("a study ran"))
        code = main(["experiment", *argv])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and flag in err and argv[1] in err

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


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


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
      for field in ({"lambda_grid": {}}, {"generator": 5}, {"methods": ["lasso"]}, {"methods": []},
                    {"methods": [{"kind": "en"}]},
                    {"lambda_grid": {"lo": 0.1, "hi": 1.0, "num": 2.7}}, {"replications": 2.7},
                    {"name": "../escaped"}, {"methods": [{"kind": "lasso"}, {"kind": "LASSO"}]},
                    {"methods": [{"kind": "lasso", "mu_grid": ["x"]}]})),
    *(["experiment", "--study", "comparison", "--config",
       json.dumps({**_CONFIG, "generator": {**_CONFIG["generator"], **field}})]
      for field in ({"beta": 3}, {"beta": []}, {"covariance": 5}, {"covariance": {"kind": "ar1"}},
                    {"covariance": {"kind": "nosuch"}}, {"covariance": {"kind": ["ar1"]}},
                    {"covariance": {"kind": "blocks", "blocks": [{"size": 3}]}},
                    {"covariance": {"kind": "blocks", "blocks": []}}, {"noise_sigma": [1]}, {"noise_sigma": -1.0}, {"n_train": -3}, {"n_val": 2.5})),
    ["riporacle", "-A", "nan,0\n0,1\n", "--k", "2"],
], ids=["gaussian", "identity", "duplicated_column", "devore", "config_list", "config_no_generator",
        "config_empty_lambda_grid", "config_generator_number", "config_method_string", "config_no_methods",
        "config_en_without_mu_grid", "config_num_fraction", "config_replications_fraction",
        "config_name_outside_out_dir", "config_repeated_kind", "config_lasso_mu_grid",
        "config_beta_number", "config_beta_empty",
        "config_covariance_number", "config_ar1_without_rho", "config_covariance_unknown_kind",
        "config_covariance_kind_list",
        "config_block_sizes_off", "config_no_blocks", "config_noise_sigma_list", "config_noise_sigma_negative",
        "config_n_train_negative", "config_n_val_fraction", "riporacle_nan_matrix"])
def test_malformed_input_is_an_input_error(capsys, tmp_path, argv):
    for flag in ("--config", "-A"):  # the text after the flag goes to a file
        if flag in argv:
            at = argv.index(flag) + 1
            (tmp_path / "input").write_text(argv[at])
            argv = [*argv[:at], str(tmp_path / "input"), *argv[at + 1:]]
    if "--study" in argv:  # a name that escapes the out dir still lands inside tmp_path
        argv = [*argv, "--out-dir", str(tmp_path / "a" / "out")]
    before = sorted(tmp_path.rglob("*"))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("covariance", [
    {"kind": "ar1", "rho": 2.0}, {"kind": "equi", "rho": -0.9},
    {"kind": "blocks", "blocks": [{"size": 3, "var": 1.0, "cov": 2.0}]},
    {"kind": "ar1", "rho": float("nan")},
], ids=["ar1", "equi", "blocks", "ar1_nan"])
def test_unusable_covariance_is_named(capsys, tmp_path, covariance):
    generator = {**_CONFIG["generator"], "beta": [1.0, 0.0, 2.0], "covariance": covariance}
    (tmp_path / "cfg.json").write_text(json.dumps({**_CONFIG, "generator": generator}))
    code = main(["experiment", "--study", "comparison", "--config", str(tmp_path / "cfg.json")])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and "covariance" in err


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

    def test_tool_version_is_the_package_version(self, capsys):
        code, env = run_cli(capsys, "certificate", "--t", "2", "--k", "1", "--delta", "0.3")
        assert code == EXIT_OK
        assert env["tool"]["version"] == clotkit.__version__
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert f'version = "{clotkit.__version__}"' in pyproject.splitlines()

    @pytest.mark.parametrize("flag, env, preset", [
        (["--threads=3"], None, None), (["--threads", "3"], None, None),
        (["--threads=3"], None, "8"), (["--threads", "3"], None, "8"),
        ([], "03", None), ([], "\uff10\uff13", None)],  # the second is "03" in fullwidth digits
        ids=["flag0", "flag1", "flag0_preset", "flag1_preset", "env_leading_zero", "env_fullwidth"])
    def test_threads_flag_caps_blas(self, capsys, monkeypatch, flag, env, preset):
        monkeypatch.setattr(os, "environ", dict(os.environ))  # keep the cap out of later tests
        for var in ("CLOTKIT_THREADS", *_THREAD_VARS):
            monkeypatch.delenv(var, raising=False)
        if env is not None:  # BLAS reads the count as an ASCII integer
            monkeypatch.setenv("CLOTKIT_THREADS", env)
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

    def test_non_finite_outputs_are_strict_json_nulls(self, capsys, tmp_path):
        # the s = 1e160 Lagrangian CLOT solve: ||y - Ax||^2, and so the objective, leaves the float range
        A, x, s, spec = fixture_matrix("gaussian", 30, 60, seed=0), np.zeros(60), 1e160, RegularizerSpec.clot(0.2)
        x[[3, 17, 40]] = (1.0, -2.0, 0.5)
        lam = s * 0.5 * solvers.lambda_zero_threshold(spec, A, A @ x)
        fileio.write_matrix_csv(tmp_path / "A.csv", A)
        fileio.write_vector_csv(tmp_path / "y.csv", A @ (s * x))
        A, y = fileio.read_matrix_csv(tmp_path / "A.csv"), fileio.read_vector_csv(tmp_path / "y.csv")
        with np.errstate(over="ignore"):
            want = solvers.solve_lagrangian(solvers.Problem(A, y, solvers.Lagrangian(lam)), spec)
            code, env = run_cli(capsys, "solve", "--reg", "clot", "--mu", "0.2", "--lambda", repr(lam),
                                "-A", str(tmp_path / "A.csv"), "-y", str(tmp_path / "y.csv"))
        assert want.objective == math.inf and np.isfinite(want.x_hat).all()
        assert code == EXIT_OK and env["outputs"]["converged"]
        assert env["outputs"]["objective"] is None
        assert env["outputs"]["x_hat"] == want.x_hat.tolist()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT
        capsys.readouterr()
