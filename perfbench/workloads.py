"""The benchmark's workloads: set-up, timed body and output checks.

Each workload is one of the paper's studies as the acceptance suite runs it.
Its size is a whole number of items (replications, draws, ladder passes or
study passes) derived from ``--seconds`` and a nominal cost per item, so the
work in a run depends only on the seed and the requested seconds, never on
how fast the code under test happens to be.

Calls into clotkit go through module attributes (``solvers.solve_constrained``
and so on) so that the tracer, which replaces those attributes, sees them.
A workload's ``unit`` is the span name of its unit operation (``tracer.TARGETS``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from clotkit import experiments, fileio, kkt, matrices, regularizers, rip, solvers

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

# C5: t = 2, noise budget 0.05, l1 slack 1e-6; C3: relative error 1e-3.
C5_T = 2.0
C5_EPS = 0.05
C5_SLACK = 1e-6
C3_REL_ERR = 1e-3
RIP_TOL = 1e-9


@dataclass
class Outcome:
    """One unit operation after its check.  ``failed`` counts toward
    ``fail_frac``; ``wrong`` marks an operation that raised, or an answer the
    solver vouched for (``converged=True``) that missed its check, and makes
    the run incorrect."""

    failed: bool
    wrong: bool = False
    note: str = ""


@dataclass
class Checked:
    outcomes: list
    study_ok: bool = True
    notes: list = field(default_factory=list)


def items_for(seconds: float, item_s: float) -> int:
    return max(1, round(seconds / item_s))


def warm_up() -> None:
    """First calls into BLAS, the solvers and the enumeration, kept out of
    the timed body."""
    A = matrices.fixture_matrix("gaussian", 10, 16, seed=0)
    x = np.zeros(16)
    x[[1, 7]] = (1.0, -0.5)
    y = A @ x
    spec = regularizers.RegularizerSpec.clot(0.2)
    solvers.solve_lagrangian(solvers.Problem(A, y, solvers.Lagrangian(0.05)), spec)
    solvers.solve_constrained(solvers.Problem(A, y, solvers.Constrained(0.01)), spec)
    rip.exact_rip(A, 2)


def _swallow(fn, *args):
    """Run one unit operation; its error is already on the tracer's call."""
    try:
        fn(*args)
    except Exception:  # the benchmark keeps going and counts the failure
        pass


# ---------------------------------------------------------------------------
# comparison: C7's run_comparison on example4
# ---------------------------------------------------------------------------


class Comparison:
    name = "comparison"
    unit = "solvers.solution_path"
    cpu_bound = True
    item_s = 3.4  # one replication of example4 on a 2-core Xeon VM, one BLAS thread

    def setup(self, seed: int, seconds: float):
        base = experiments.load_builtin_scenario("example4").to_dict()
        base.update(seed=seed, replications=items_for(seconds, self.item_s))
        return experiments.ScenarioConfig.from_dict(base)

    def describe(self, state) -> str:
        return f"run_comparison(example4), {state.replications} replications, scenario seed {state.seed}"

    def body(self, state):
        return experiments.run_comparison(state)

    def check(self, state, calls, report) -> Checked:
        outcomes = [self._check_path(call) for call in calls]
        methods = {m["kind"] for m in state.methods}
        done = set(report.tables["median_mse"]) if report is not None else set()
        checked = Checked(outcomes, study_ok=done == methods)
        if not checked.study_ok:
            checked.notes.append(f"study reported methods {sorted(done)}, expected {sorted(methods)}")
        return checked

    @staticmethod
    def _check_path(call: Call) -> Outcome:
        if call.error is not None:
            return Outcome(True, True, note=call.error)
        template, spec, _, opts = call.args
        A, y, side = template.A, template.y, template.form.side
        aty_inf = float(np.max(np.abs(A.T @ y), initial=0.0))
        failed = wrong = False
        notes = []
        for point in call.result:
            if point.result is None:  # solution_path caught an exception
                failed = wrong = True
                notes.append(f"lam={point.lam:g}: {point.error}")
                continue
            loss_w = point.lam if side == "loss" else 1.0
            tol = opts.kkt_tol * max(1.0, 2.0 * loss_w * aty_inf)
            gap = kkt.kkt_residual(A, y, point.result.x_hat, spec, point.lam, side)
            if not point.result.converged:
                failed = True
                notes.append(f"lam={point.lam:g}: converged=False")
            if gap > tol:
                failed = True
                wrong = wrong or point.result.converged
                notes.append(f"lam={point.lam:g}: kkt {gap:.3g} > {tol:.3g}")
        return Outcome(failed, wrong, "; ".join(notes))


# ---------------------------------------------------------------------------
# constrained: C5's recovery draws, noisy (bisection) and noise-free (ramp)
# ---------------------------------------------------------------------------


@dataclass
class Draw:
    fixture: str
    A: np.ndarray
    x: np.ndarray
    y_noisy: np.ndarray
    spec: object
    cert: object


class Constrained:
    name = "constrained"
    unit = "solvers.solve_constrained"
    cpu_bound = True
    item_s = 1.35  # one draw on both fixtures, both branches

    def setup(self, seed: int, seconds: float):
        draws_per_fixture = items_for(seconds, self.item_s)
        fixtures = {
            "devore_5_2": matrices.devore_matrix(matrices.DeVoreParams(5, 2), normalize=True),
            "gaussian_30_36": matrices.fixture_matrix("gaussian", 30, 36, seed=1),
        }
        draws = []
        for name, A in fixtures.items():
            delta2 = rip.exact_rip(A, 2).delta_k
            if not delta2 < math.sqrt((C5_T - 1.0) / C5_T):
                raise RuntimeError(f"{name}: delta_2 = {delta2:.4f} fails the t=2 threshold")
            rho = rip.certificate(C5_T, 1, delta2, 1, 0.0).rho
            mu = min(0.2, 0.5 * (1 - rho) / ((1 - rho) + (1 + rho)))
            cert = rip.certificate(C5_T, 1, delta2, 1, mu)
            if not cert.valid:
                raise RuntimeError(f"{name}: certificate invalid: {cert.reason}")
            spec = regularizers.RegularizerSpec.clot(mu)
            rng = np.random.default_rng(seed)
            for _ in range(draws_per_fixture):
                x = np.zeros(A.shape[1])
                sup = rng.choice(A.shape[1], size=1, replace=False)
                x[sup] = 2.0 * rng.standard_normal(1)
                eta = rng.standard_normal(A.shape[0])
                eta *= rng.uniform(0.0, C5_EPS) / np.linalg.norm(eta)
                draws.append(Draw(name, A, x, A @ x + eta, spec, cert))
        return draws

    def describe(self, state) -> str:
        return f"{len(state)} 1-sparse draws (half per fixture), each solved at eps=0.05 and eps=0"

    @staticmethod
    def ops(state):
        for d in state:
            yield d, C5_EPS, d.y_noisy
            yield d, 0.0, d.A @ d.x

    def body(self, state):
        for d, eps, y in self.ops(state):
            _swallow(solvers.solve_constrained, solvers.Problem(d.A, y, solvers.Constrained(eps)), d.spec)

    def check(self, state, calls, report) -> Checked:
        feas_tol = solvers.SolverOptions().feas_tol
        outcomes = []
        for (d, eps, y), call in zip(self.ops(state), calls):
            if call.error is not None:
                outcomes.append(Outcome(True, True, note=call.error))
                continue
            res = call.result
            if eps > 0:
                resid = float(np.linalg.norm(d.A @ res.x_hat - y))
                bound, _ = rip.error_bounds(d.cert, regularizers.sparsity_index(d.x, 1), eps)
                err = float(np.sum(np.abs(res.x_hat - d.x)))
                ok = resid <= eps * (1.0 + feas_tol) + 1e-12 and err <= bound + C5_SLACK
                note = f"{d.fixture} eps={eps}: residual {resid:.3g}, l1 error {err:.3g} vs bound {bound:.3g}"
            else:
                rel = float(np.linalg.norm(res.x_hat - d.x) / np.linalg.norm(d.x))
                ok = rel <= C3_REL_ERR
                note = f"{d.fixture} eps=0: relative error {rel:.3g}"
            if not res.converged:
                note += ", converged=False"
            outcomes.append(Outcome(not (ok and res.converged), res.converged and not ok,
                                    "" if ok and res.converged else note))
        return Checked(outcomes, study_ok=len(calls) == 2 * len(state))


# ---------------------------------------------------------------------------
# rip: C5's exact delta_k ladder on both fixtures
# ---------------------------------------------------------------------------


class Rip:
    name = "rip"
    unit = "rip.exact_rip"
    cpu_bound = True
    item_s = 0.6  # one ladder pass: devore k=1..3 and gaussian k=1..4
    ladders = (("devore_5_2", (1, 2, 3)), ("gaussian_30_36", (1, 2, 3, 4)))

    def setup(self, seed: int, seconds: float):
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            reference = json.load(handle)["delta_k"]
        devore = matrices.devore_matrix(matrices.DeVoreParams(5, 2), normalize=True)
        gaussian = matrices.fixture_matrix("gaussian", 30, 36, seed=1)
        # Each pass gets its own inputs, as each study computes its delta_k
        # once: DeVore's rows and the Gaussian fixture's columns are permuted
        # afresh.  Neither changes delta_k, so the reference values hold; a row
        # permutation also keeps DeVore's Gram matrix and column structure.
        rng = np.random.default_rng(seed)
        passes = items_for(seconds, self.item_s)
        ops = []
        for _ in range(passes):
            mats = {"devore_5_2": devore[rng.permutation(devore.shape[0])],
                    "gaussian_30_36": gaussian[:, rng.permutation(gaussian.shape[1])]}
            ops.extend((name, mats[name], k) for name, ks in self.ladders for k in ks)
        return {"passes": passes, "ops": ops, "reference": reference}

    def describe(self, state) -> str:
        return (f"{state['passes']} passes of the ladder devore(5,2) k=1..3, gaussian 30x36 k=1..4, "
                "each on freshly permuted matrices")

    def body(self, state):
        for _, A, k in state["ops"]:
            _swallow(rip.exact_rip, A, k)

    def check(self, state, calls, report) -> Checked:
        outcomes, notes = [], []
        last = {}
        monotone = True
        for (name, _, k), call in zip(state["ops"], calls):
            if call.error is not None:
                outcomes.append(Outcome(True, True, note=call.error))
                continue
            delta = call.result.delta_k
            want = state["reference"][name][str(k)]
            ok = abs(delta - want) <= RIP_TOL
            outcomes.append(Outcome(not ok, not ok, "" if ok else f"{name} k={k}: {delta!r} != {want!r}"))
            if k > 1 and delta < last.get(name, -math.inf) - 1e-12:
                monotone = False
                notes.append(f"{name}: delta_{k} below delta_{k - 1}")
            last[name] = delta
        return Checked(outcomes, study_ok=monotone and len(calls) == len(state["ops"]), notes=notes)


# ---------------------------------------------------------------------------
# scaling: eps=0 recovery on the 529 x 4000 DeVore matrix
# ---------------------------------------------------------------------------


SCALING_TRUE = (0.8147, 0.9058, 0.1270)


class Scaling:
    name = "scaling"
    unit = "solvers.solve_constrained"
    cpu_bound = False  # dense 529x4000 products: bound by memory traffic
    item_s = 18.0  # CLOT at 10^0 and 10^4, EN at 10^0

    def setup(self, seed: int, seconds: float):
        params = matrices.DeVoreParams(23, 2, 4000)
        built = matrices.devore_matrix(params, normalize=False)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"scaling-{os.getpid()}.triplet")
        try:
            fileio.write_triplet(path, built)
            A = fileio.read_triplet(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        if not np.array_equal(A, built):
            raise RuntimeError("the triplet round trip changed the matrix")
        rng = np.random.default_rng(seed)
        signals = []
        for _ in range(items_for(seconds, self.item_s)):
            x0 = np.zeros(A.shape[1])
            x0[np.sort(rng.choice(A.shape[1], size=3, replace=False))] = SCALING_TRUE
            signals.append(x0)
        clot = regularizers.RegularizerSpec.clot(0.2)
        en = regularizers.RegularizerSpec.elastic_net(0.8)  # (1-mu)*l1 + mu*l2^2 with mu = 0.2
        plan = [("clot", clot, 0), ("clot", clot, 4), ("en", en, 0)]
        return {"A": A, "signals": signals, "plan": plan}

    def describe(self, state) -> str:
        return f"{len(state['signals'])} x (CLOT 10^0, CLOT 10^4, EN 10^0) on 529x4000, eps=0"

    def ops(self, state):
        for x0 in state["signals"]:
            for label, spec, c in state["plan"]:
                yield label, spec, c, (10.0 ** c) * x0

    def body(self, state):
        A = state["A"]
        for _, spec, _, x in self.ops(state):
            _swallow(solvers.solve_constrained, solvers.Problem(A, A @ x, solvers.Constrained(0.0)), spec)

    def check(self, state, calls, report) -> Checked:
        outcomes, notes = [], []
        for (label, _, c, x), call in zip(self.ops(state), calls):
            if call.error is not None:
                outcomes.append(Outcome(True, True, note=call.error))
                continue
            res = call.result
            rel = float(np.linalg.norm(res.x_hat - x) / np.linalg.norm(x))
            notes.append(f"{label} 10^{c}: relative error {rel:.3g}, {res.iterations} iterations")
            ok = rel <= C3_REL_ERR or label == "en"  # EN's error is recorded, not judged
            outcomes.append(Outcome(not (ok and res.converged), res.converged and not ok,
                                    "" if ok and res.converged else notes[-1]))
        expected = len(state["signals"]) * len(state["plan"])
        return Checked(outcomes, study_ok=len(calls) == expected, notes=notes)


WORKLOADS = {w.name: w for w in (Comparison(), Constrained(), Rip(), Scaling())}
