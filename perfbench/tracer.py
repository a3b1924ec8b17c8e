"""Spans at the public-function boundaries of clotkit, recorded from outside.

A :class:`Tracer` replaces module attributes (``clotkit.solvers.prox``,
``clotkit.experiments.solution_path``, ...) with thin wrappers, so every call
that other modules make through those names is timed.  Nothing in the package
changes; the originals are put back by :meth:`Tracer.uninstall`.  The calls
of the workload's unit operation also keep their arguments, result or error
(:class:`Call`), which the output checks read after the timed body.

Each span holds a name, a start and an end (``perf_counter_ns``), its parent
span and the id of the unit operation it belongs to.  Spans live in flat
arrays while the run is going and are written out once, when it ends.  Self
time is a span's duration minus the time its direct children cover; because
spans nest on one thread and the clock is integral, it cannot go negative
unless nesting breaks, which :meth:`Tracer.summary` reports.
"""

from __future__ import annotations

import importlib
import math
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Optional

# (module, attribute other modules call through, span name)
TARGETS = (
    ("clotkit.experiments", "run_comparison", "experiments.run_comparison"),
    ("clotkit.experiments", "solution_path", "solvers.solution_path"),
    ("clotkit.solvers", "solve_constrained", "solvers.solve_constrained"),
    ("clotkit.solvers", "solve_lagrangian", "solvers.solve_lagrangian"),
    ("clotkit.solvers", "prox", "regularizers.prox"),
    ("clotkit.solvers", "penalty_value", "regularizers.penalty_value"),
    ("clotkit.solvers", "subdiff_distance", "kkt.subdiff_distance"),
    ("clotkit.rip", "exact_rip", "rip.exact_rip"),
    ("clotkit.matrices", "devore_matrix", "matrices.devore_matrix"),
    ("clotkit.matrices", "fixture_matrix", "matrices.fixture_matrix"),
    ("clotkit.fileio", "write_triplet", "fileio.write_triplet"),
    ("clotkit.fileio", "read_triplet", "fileio.read_triplet"),
)


def targets(*names: str) -> tuple:
    """The rows of ``TARGETS`` with the given span names."""
    return tuple(t for t in TARGETS if t[2] in names)


@dataclass
class Call:
    """One unit-operation call: its arguments, result or error, and span times."""

    args: tuple
    kwargs: dict
    result: object = None
    error: Optional[str] = None
    t0: int = 0
    t1: int = 0

    @property
    def ns(self) -> int:
        return self.t1 - self.t0


class Tracer:
    """In-memory span recorder, installed with ``with tracer:``.

    ``unit`` names the span that starts a new unit operation; every span
    opened inside it carries that operation's id (0 outside any unit), and
    each unit call is kept in ``calls``.  ``targets`` are the wrapped names
    (all of ``TARGETS`` by default).  ``after`` runs after each unit call,
    outside its span.
    """

    def __init__(self, unit: str, targets: tuple = TARGETS, after=None):
        self.unit = unit
        self.targets = targets
        self.after = after
        self.calls: list = []
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list = []
        self._ops = 0
        self.iterations = 0
        self.unconverged = 0
        self.supports = 0
        self.bytes = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        if name == self.unit:
            self._ops += 1
            op = self._ops
        else:
            op = self.op[parent] if parent >= 0 else 0
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        tracer = self
        keep = name == self.unit
        after = self.after if keep else None
        observe = {
            "solvers.solve_lagrangian": self._count_solve,
            "rip.exact_rip": self._count_supports,
            "fileio.write_triplet": self._count_file,
            "fileio.read_triplet": self._count_file,
        }.get(name)

        def traced(*args, **kwargs):
            if keep:
                call = Call(args, kwargs)
                tracer.calls.append(call)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if keep:
                    call.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                tracer._close(idx)
                if keep:
                    call.t0, call.t1 = tracer.start[idx], tracer.end[idx]
                    if after is not None:
                        after()
            if keep:
                call.result = result
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _count_solve(self, args, result) -> None:
        self.iterations += int(result.iterations)
        self.unconverged += not result.converged

    def _count_supports(self, args, result) -> None:
        self.supports += math.comb(args[0].shape[1], int(args[1]))

    def _count_file(self, args, result) -> None:
        self.bytes += os.path.getsize(args[0])

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start, "end": end, "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "dur": dur, "self": dur - covered,
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        import numpy as np

        a = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(a["dur"][sel].sum()) * 1e-9,
                "self_s": float(a["self"][sel].sum()) * 1e-9,
            }
        out["_negative_self_spans"] = int(np.sum(a["self"] < 0))
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        import numpy as np

        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        a = self.arrays()
        child = (a["name"] == self._ids[child_name]) & (a["parent"] >= 0)
        parents = a["parent"][child]
        return int(np.sum(a["name"][parents] == self._ids[parent_name]))

    def coverage(self, name: str) -> float:
        """Share of the ``name`` spans' time that their direct children cover."""
        a = self.arrays()
        sel = a["name"] == self._ids[name]
        total = float(a["dur"][sel].sum())
        return 1.0 - float(a["self"][sel].sum()) / total if total > 0 else 0.0

    def write(self, path: str, meta: dict) -> None:
        import json

        import numpy as np

        a = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), meta=np.array(json.dumps(meta)),
                            **{k: a[k] for k in ("name", "start", "end", "parent", "op")})


def span_cost_ns(calls: int = 100_000) -> float:
    """Cost of one span, from tracing a function that does nothing."""

    def noop():
        return None

    traced = Tracer(unit="")._wrap(noop, "noop")
    t0 = perf_counter_ns()
    for _ in range(calls):
        traced()
    t1 = perf_counter_ns()
    for _ in range(calls):
        noop()
    t2 = perf_counter_ns()
    return ((t1 - t0) - (t2 - t1)) / calls


def layer_metrics(tr: Tracer, overhead_frac: float, span_cost_frac: float) -> dict:
    """Per-layer metrics of one traced body: name -> (value, unit).
    ``overhead_frac`` is traced over plain body time, minus one;
    ``span_cost_frac`` the modelled share the spans add to the body."""
    s = tr.summary()

    def get(name, key="calls"):
        return s.get(name, {}).get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    iters = tr.iterations
    lag, con = "solvers.solve_lagrangian", "solvers.solve_constrained"
    rip_s = get("rip.exact_rip", "s")
    return {
        "solvers.solve_lagrangian.calls": (get(lag), "count"),
        "solvers.iterations": (iters, "count"),
        "solvers.us_per_iter": (1e6 * per(get(lag, "s"), iters), "us"),
        "solvers.solve_lagrangian.self_s": (get(lag, "self_s"), "s"),
        "solvers.unconverged_frac": (per(tr.unconverged, get(lag)), "ratio"),
        "solvers.solve_constrained.calls": (get(con), "count"),
        "solvers.inner_per_constrained": (per(tr.child_calls(con, lag), get(con)), "count"),
        "solvers.solve_constrained.self_s": (get(con, "self_s"), "s"),
        "solvers.solution_path.calls": (get("solvers.solution_path"), "count"),
        "solvers.solution_path.s": (get("solvers.solution_path", "s"), "s"),
        "regularizers.prox.calls": (get("regularizers.prox"), "count"),
        "regularizers.prox.self_s": (get("regularizers.prox", "self_s"), "s"),
        "regularizers.prox_per_iter": (per(get("regularizers.prox"), iters), "count/iter"),
        "regularizers.penalty_value.calls": (get("regularizers.penalty_value"), "count"),
        "regularizers.penalty_value.self_s": (get("regularizers.penalty_value", "self_s"), "s"),
        "regularizers.penalty_per_iter": (per(get("regularizers.penalty_value"), iters), "count/iter"),
        "kkt.subdiff_distance.calls": (get("kkt.subdiff_distance"), "count"),
        "kkt.subdiff_distance.self_s": (get("kkt.subdiff_distance", "self_s"), "s"),
        "kkt.checks_per_iter": (per(get("kkt.subdiff_distance"), iters), "count/iter"),
        "rip.exact_rip.calls": (get("rip.exact_rip"), "count"),
        "rip.exact_rip.s": (rip_s, "s"),
        "rip.supports": (tr.supports, "count"),
        "rip.supports_per_s": (per(tr.supports, rip_s), "1/s"),
        "matrices.devore_matrix.s": (get("matrices.devore_matrix", "s"), "s"),
        "matrices.fixture_matrix.s": (get("matrices.fixture_matrix", "s"), "s"),
        "fileio.write_triplet.s": (get("fileio.write_triplet", "s"), "s"),
        "fileio.read_triplet.s": (get("fileio.read_triplet", "s"), "s"),
        "fileio.bytes": (tr.bytes, "B"),
        "experiments.run_comparison.s": (get("experiments.run_comparison", "s"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
        "trace.span_cost_frac": (span_cost_frac, "ratio"),
        "trace.body_coverage": (tr.coverage("bench.body"), "ratio"),
    }
