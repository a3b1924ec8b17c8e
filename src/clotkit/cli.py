"""Command-line entry point.

Subcommands: ``solve``, ``certificate``, ``matrix``, ``riporacle``,
``experiment``.  Every run prints (or writes with ``--out``) a JSON envelope
holding the tool version, the fully resolved configuration, the wall-clock
time, and the outputs; the envelope schema ships with the package.  Exit
codes: 0 success, 1 usage or input error, 2 numerical non-convergence.

Each handler returns its outputs and exit code; :func:`main` times it and
emits the envelope.  Heavy imports happen inside the handlers so that
``--threads`` (or ``CLOTKIT_THREADS``) can cap the BLAS worker count before
the numeric stack loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOCONV = 2

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("clotkit")
    except PackageNotFoundError:
        return "0.0.dev"


def _emit(args, outputs: dict, wall_time_s: float) -> None:
    envelope = {
        "tool": {"name": "clotkit", "version": _version()},
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "wall_time_s": wall_time_s,
        "outputs": outputs,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True, default=_json_default)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    import numpy as np

    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _is_triplet(path) -> bool:
    return str(path).endswith((".spt", ".triplet", ".txt"))


def _read_matrix(path):
    from . import fileio

    return (fileio.read_triplet if _is_triplet(path) else fileio.read_matrix_csv)(path)


def _build_spec(args):
    from .regularizers import Partition, RegularizerSpec

    partition = None
    if args.groups:
        if args.reg not in ("gl", "sgl"):
            raise ValueError(f"--groups needs --reg gl or sgl, not {args.reg}; "
                             "CLOT is one group, and sgl is CLOT's penalty over groups")
        with open(args.groups, "r", encoding="utf-8") as handle:
            groups = json.load(handle)
        if not (isinstance(groups, list) and all(
                isinstance(g, list) and all(type(i) is int for i in g) for g in groups)):
            raise ValueError(f"--groups file {args.groups} must hold a list of lists of integers")
        n = max(i for g in groups for i in g) + 1
        partition = Partition(tuple(tuple(g) for g in groups), n)
    return RegularizerSpec(args.reg, args.mu, partition)


def _solver_options(args):
    from .solvers import SolverOptions

    return SolverOptions(**{name: getattr(args, name) for name in ("kkt_tol", "feas_tol", "max_iters")
                            if getattr(args, name) is not None})


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_solve(args):
    from . import fileio
    from .solvers import Constrained, Lagrangian, Problem, solve_constrained, solve_lagrangian

    A = _read_matrix(args.matrix)
    y = fileio.read_vector_csv(args.rhs)
    spec = _build_spec(args)
    opts = _solver_options(args)

    if (args.lam is None) == (args.eps is None):
        raise ValueError("give --lambda for the multiplier form or --eps for the constrained form, "
                         "not both or neither")
    if args.eps is not None:
        result = solve_constrained(Problem(A, y, Constrained(args.eps)), spec, opts)
    else:
        result = solve_lagrangian(Problem(A, y, Lagrangian(args.lam, args.lambda_side)), spec, opts)

    outputs = {**vars(result), "nnz": int((result.x_hat != 0).sum()), "x_out": args.x_out}
    if args.x_out:
        fileio.write_vector_csv(args.x_out, outputs.pop("x_hat"))
    return outputs, EXIT_OK if result.converged else EXIT_NOCONV


def _cmd_certificate(args):
    from .rip import certificate, error_bounds

    cert = certificate(args.t, args.k, args.delta, args.g, args.mu)
    outputs = {"certificate": cert.to_dict()}
    if args.sigma_k is not None or args.eps is not None:
        sigma_k = args.sigma_k or 0.0
        eps = args.eps or 0.0
        if cert.valid:
            l1, lp = error_bounds(cert, sigma_k, eps, args.p)
            outputs["bound_l1"] = l1
            outputs["bound_lp"] = lp
            outputs["p"] = args.p
        else:
            outputs["bound_l1"] = None
            outputs["bound_lp"] = None
    return outputs, EXIT_OK


def _cmd_matrix(args):
    from . import fileio
    from .matrices import DeVoreParams, devore_matrix, devore_min_prime, devore_threshold, fixture_matrix

    outputs = {}
    if args.matrix_kind == "devore":
        if args.p is None and args.n is None:
            raise ValueError("matrix devore needs --p or --n")
        if args.p is not None:
            p = args.p
        else:
            rip_term, dim_term = devore_threshold(args.t, args.k, args.delta, args.n, args.r)
            p = devore_min_prime(args.t, args.k, args.delta, args.n, args.r, args.strict)
            outputs["threshold"] = {"rip_term": rip_term, "dim_term": dim_term,
                                    "threshold": max(rip_term, dim_term)}
        params = DeVoreParams(p, args.r, args.n_truncate or (args.n if args.n else None))
        A = devore_matrix(params, normalize=args.normalize)
        outputs["p"] = p
        outputs["shape"] = list(A.shape)
    else:
        if args.m is None or args.n is None:
            raise ValueError(f"matrix {args.matrix_kind} needs --m and --n")
        A = fixture_matrix(args.matrix_kind, args.m, args.n, args.seed)
        outputs["shape"] = list(A.shape)
    if args.matrix_out:
        triplet = _is_triplet(args.matrix_out)
        (fileio.write_triplet if triplet else fileio.write_matrix_csv)(args.matrix_out, A)
        outputs["matrix_out"] = args.matrix_out
        outputs["format"] = "triplet" if triplet else "csv"
    return outputs, EXIT_OK


def _cmd_riporacle(args):
    from .rip import exact_rip

    est = exact_rip(_read_matrix(args.matrix), args.k)
    return {"k": est.k, "delta_k": est.delta_k, "argmax_support": list(est.argmax_support)}, EXIT_OK


def _cmd_experiment(args):
    from . import experiments

    if args.study == "comparison":
        if args.config:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = experiments.ScenarioConfig.from_dict(json.load(handle))
        elif args.scenario:
            config = experiments.load_builtin_scenario(args.scenario)
        else:
            raise ValueError("comparison needs --config FILE or --scenario NAME")
        report = experiments.run_comparison(config)
    elif args.study == "grouping":
        report = experiments.run_grouping_paths(seed=args.seed)
    elif args.study == "paths":
        report = experiments.run_path_nonequivalence(seed=args.seed)
    else:  # scaling; argparse restricts the choices
        report = experiments.run_scaling(preset="small" if args.small else "full")

    outputs = {"tables": report.tables, "metadata": report.metadata}
    if args.out_dir:
        outputs["files"] = report.write(args.out_dir)
    return outputs, EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clotkit",
                                     description="Sparse recovery toolkit: solvers, "
                                                 "certificates, matrices, studies")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap the BLAS worker count (also CLOTKIT_THREADS)")
    parser.add_argument("--out", default=None, help="write the JSON envelope here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a recovery program from CSV inputs")
    ps.add_argument("--reg", required=True,
                    choices=("lasso", "l1", "ridge", "l2sq", "en", "clot", "gl", "sgl"))
    ps.add_argument("--mu", type=float, default=0.0)
    ps.add_argument("--groups", default=None, help="JSON file with a list of index groups")
    ps.add_argument("--lambda", dest="lam", type=float, default=None)
    ps.add_argument("--lambda-side", dest="lambda_side", choices=("penalty", "loss"),
                    default="penalty")
    ps.add_argument("--eps", type=float, default=None)
    ps.add_argument("-A", "--matrix", required=True)
    ps.add_argument("-y", "--rhs", required=True)
    ps.add_argument("--x-out", default=None, help="write the estimate as a CSV vector")
    ps.add_argument("--kkt-tol", dest="kkt_tol", type=float, default=None)
    ps.add_argument("--feas-tol", dest="feas_tol", type=float, default=None)
    ps.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    ps.set_defaults(func=_cmd_solve)

    pc = sub.add_parser("certificate", help="recovery-certificate constants")
    pc.add_argument("--t", type=float, required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--delta", type=float, required=True)
    pc.add_argument("--g", type=int, default=1)
    pc.add_argument("--mu", type=float, default=0.0)
    pc.add_argument("--sigma-k", dest="sigma_k", type=float, default=None)
    pc.add_argument("--eps", type=float, default=None)
    pc.add_argument("--p", type=float, default=2.0)
    pc.set_defaults(func=_cmd_certificate)

    pm = sub.add_parser("matrix", help="generate measurement matrices")
    pm.add_argument("matrix_kind", choices=("devore", "identity", "gaussian", "duplicated_column"))
    pm.add_argument("--p", type=int, default=None, help="prime (devore); otherwise derived")
    pm.add_argument("--r", type=int, default=2)
    pm.add_argument("--t", type=float, default=1.5)
    pm.add_argument("--k", type=int, default=3)
    pm.add_argument("--delta", type=float, default=0.4)
    pm.add_argument("--n", type=int, default=None, help="target column count")
    pm.add_argument("--n-truncate", dest="n_truncate", type=int, default=None)
    pm.add_argument("--m", type=int, default=None, help="rows (test matrices)")
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--strict", action="store_true",
                    help="require the prime to strictly exceed the threshold")
    pm.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    pm.add_argument("--matrix-out", default=None,
                    help="write the matrix here: triplet for .spt, .triplet or .txt, else CSV")
    pm.set_defaults(func=_cmd_matrix)

    pr = sub.add_parser("riporacle", help="exact restricted-isometry constant (small instances)")
    pr.add_argument("-A", "--matrix", required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.set_defaults(func=_cmd_riporacle)

    pe = sub.add_parser("experiment", help="run a scripted study")
    pe.add_argument("--study", choices=("comparison", "grouping", "paths", "scaling"),
                    required=True)
    pe.add_argument("--config", default=None, help="scenario config JSON (comparison)")
    pe.add_argument("--scenario", default=None, help="builtin scenario name (comparison)")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--small", action="store_true", help="the small scaling preset")
    pe.add_argument("--out-dir", dest="out_dir", default=None)
    pe.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    threads = os.environ.get("CLOTKIT_THREADS", "") if args.threads is None else str(args.threads)
    try:
        # the handlers import numpy, so the BLAS cap must be in place before them
        if threads:
            if not (threads.isdecimal() and int(threads) > 0):
                raise ValueError(f"the thread count must be a positive integer, got {threads!r}")
            for var in _THREAD_VARS:
                os.environ[var] = threads
        t0 = time.perf_counter()
        outputs, code = args.func(args)
        _emit(args, outputs, time.perf_counter() - t0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
