import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import clotkit
from clotkit import solvers

MODULES = sorted(Path(clotkit.__file__).parent.glob("*.py"))


def _private_sibling_imports(path):
    """``(line, module, name)`` for each underscore name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "clotkit":
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def _sibling_reexports(path):
    """Names a module lists in ``__all__`` although it imports them from a sibling."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("clotkit"))
                for alias in node.names}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported & exported)


def test_no_module_reexports_a_sibling_name():
    offenders = {path.name: names for path in MODULES
                 if path.name != "__init__.py" and (names := _sibling_reexports(path))}
    assert not offenders, offenders


def test_no_module_imports_a_private_name_from_a_sibling():
    assert {"kkt.py", "regularizers.py", "solvers.py"} <= {path.name for path in MODULES}
    offenders = {path.name: hits for path in MODULES if (hits := _private_sibling_imports(path))}
    assert not offenders, offenders


def test_benchmark_tracer_targets_exist(monkeypatch):
    # the benchmark's tracer wraps these module attributes; a renamed or moved
    # name would break its traced runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look themselves up there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the benchmark's directory as it is
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) >= 12
    missing = [(module, name) for module, name, _ in tracer.TARGETS
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing


BENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def _clotkit_chains(path):
    """Dotted names the file reaches through its clotkit imports, e.g.
    ``clotkit.kkt.kkt_residual`` for ``kkt.kkt_residual`` after
    ``from clotkit import kkt``; read from the syntax tree alone."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "clotkit":  # "import clotkit.x" binds "clotkit"
                    roots[alias.asname or "clotkit"] = alias.name if alias.asname else "clotkit"
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "clotkit":
            roots.update({alias.asname or alias.name: f"{node.module}.{alias.name}" for alias in node.names})
    chains = set(roots.values())
    for node in ast.walk(tree):
        names, inner = [], node
        while isinstance(inner, ast.Attribute):
            names.append(inner.attr)
            inner = inner.value
        if names and isinstance(inner, ast.Name) and inner.id in roots:
            chains.add(".".join([roots[inner.id], *reversed(names)]))
    return chains


def _resolves(dotted):
    """Whether a dotted name is a module or an attribute reached from one."""
    path, *rest = dotted.split(".")
    obj = importlib.import_module(path)
    for name in rest:
        path += "." + name
        try:
            obj = getattr(obj, name) if hasattr(obj, name) else importlib.import_module(path)
        except ImportError:
            return False
    return True


def test_benchmark_clotkit_references_resolve():
    # the benchmark is read, never imported, so nothing is written next to it
    chains = {path.name: _clotkit_chains(path) for path in BENCH}
    assert {"clotkit.kkt.kkt_residual", "clotkit.regularizers.RegularizerSpec.clot",
            "clotkit.cli._THREAD_VARS"} <= set().union(*chains.values())
    missing = {name: bad for name, found in chains.items() if (bad := sorted(c for c in found if not _resolves(c)))}
    assert not missing, missing


def test_benchmark_instance_attributes_exist():
    # read off instances in the benchmark, where no import chain reaches them
    fields = {cls: {f.name for f in dataclasses.fields(cls)} for cls in (solvers.PathPoint, solvers.SolveResult)}
    assert {"lam", "result"} <= fields[solvers.PathPoint]
    assert {"x_hat", "iterations", "converged"} <= fields[solvers.SolveResult]
    assert solvers.SolverOptions().feas_tol > 0
