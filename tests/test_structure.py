import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import clotkit
from clotkit import solvers
from clotkit.cli import _THREAD_VARS

MODULES = sorted(Path(clotkit.__file__).parent.glob("*.py"))
SUBMODULES = ("grouping", "kkt", "matrices", "regularizers", "rip", "solvers")


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


def _lines(path, found, *places):
    """``{True: lines inside, False: lines outside}`` the named classes and functions of
    the module at ``path``, of each node for which ``found(node)`` holds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stack, lines = [(node, False) for node in tree.body], {True: [], False: []}
    while stack:
        node, inside = stack.pop()
        inside = inside or (isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in places)
        if found(node):
            lines[inside].append(node.lineno)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return lines


def _solvers_lines(found, *places):
    return _lines(Path(solvers.__file__), found, *places)


def test_only_the_regularizer_spec_reads_the_penalty_kind():
    # every family function branches on the weights (a, b, c) alone; the kind only names the spec
    def kind(node):
        return isinstance(node, ast.Attribute) and node.attr == "kind" and isinstance(node.ctx, ast.Load)
    reads = {path.name: _lines(path, kind, "RegularizerSpec") for path in MODULES}
    outside = {name: lines[False] for name, lines in reads.items() if lines[False]}
    assert reads["regularizers.py"][True] and not outside, outside


def _sqrt_of_a_sum_of_squares(node):
    """Whether ``node`` is ``np.sqrt(...)`` or ``math.sqrt(...)`` of an ``np.bincount(...)`` or of
    ``v @ v``, seen through a ``float(...)`` around the argument."""
    if not (isinstance(node, ast.Call) and node.args and getattr(node.func, "attr", None) == "sqrt"):
        return False
    arg = node.args[0]
    if isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "float" and arg.args:
        arg = arg.args[0]
    return (isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "bincount"
            or isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.MatMult)
            and ast.dump(arg.left) == ast.dump(arg.right))


def test_only_group_norms_takes_a_group_norm():
    # how a Euclidean group norm is taken is decided in one place, regularizers.group_norms
    roots = {path.name: _lines(path, _sqrt_of_a_sum_of_squares, "group_norms") for path in MODULES}
    outside = {name: lines[False] for name, lines in roots.items() if lines[False]}
    assert roots["regularizers.py"][True] and not outside, outside


def _whole_a(node):
    """Whether ``node`` is ``A``, ``<obj>.A`` or a call on ``A`` such as ``np.asarray(A)``."""
    if isinstance(node, ast.Call) and node.args:
        node = node.args[0]
    return isinstance(node, ast.Name) and node.id == "A" or isinstance(node, ast.Attribute) and node.attr == "A"


def test_only_the_workspace_multiplies_by_the_transpose_of_a():
    # A^T v reads only v's nonzero rows where that pays, a choice made in _Workspace.adjoint;
    # lambda_zero_threshold takes (A, y) from its caller and has no workspace
    transposes = _solvers_lines(lambda node: isinstance(node, ast.Attribute) and node.attr == "T"
                                and _whole_a(node.value), "_Workspace", "lambda_zero_threshold")
    assert transposes[True] and not transposes[False], transposes[False]


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


def _module_level_sibling_imports(path):
    """Line numbers of the clotkit imports that run when the module itself is imported."""
    stack, found = list(ast.parse(path.read_text(encoding="utf-8")).body), []
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a body runs when called, not at import
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "clotkit"):
            found.append(node.lineno)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "clotkit" for a in node.names):
            found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_package_init_imports_no_sibling_at_module_level():
    # every sibling loads numpy; one imported with the package would load it before
    # cli.main sets the BLAS thread variables, and --threads would not cap BLAS
    assert _module_level_sibling_imports(Path(clotkit.__file__)) == []


def _fresh(script):
    """stdout of ``script`` in a new interpreter that imports clotkit from this source tree."""
    src = Path(clotkit.__file__).parents[1]
    env = {k: v for k, v in os.environ.items() if k not in ("CLOTKIT_THREADS", *_THREAD_VARS)}
    proc = subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONPATH": str(src)},
                          cwd=src, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_threads_cap_blas_before_numpy_loads():
    out = _fresh(f"""
import json, os, sys
import clotkit.cli
before = "numpy" in sys.modules
seen = {{}}
class Spy:  # records the thread variables when numpy starts to load
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{var: os.environ.get(var) for var in {_THREAD_VARS!r}}})
sys.meta_path.insert(0, Spy())
code = clotkit.cli.main(["--threads", "1", "--out", os.devnull,
                         "certificate", "--t", "2", "--k", "1", "--delta", "0.3"])
print(json.dumps([before, code, seen, "numpy" in sys.modules]))
""")
    assert out == [False, 0, dict.fromkeys(_THREAD_VARS, "1"), True]


def test_bare_package_import_resolves_submodules_on_first_read():
    out = _fresh(f"""
import json, sys
import clotkit
before = sorted(name for name in sys.modules if name.startswith("clotkit.") or name == "numpy")
names = [getattr(clotkit, name).__name__ for name in {SUBMODULES!r}]
try:
    clotkit.nope
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([before, names, missing, sorted(set(clotkit.__all__) - set(dir(clotkit)))]))
""")
    assert out == [[], [f"clotkit.{name}" for name in SUBMODULES],
                   "module 'clotkit' has no attribute 'nope'", []]


def test_package_names_are_their_defining_modules_objects():
    assert len(set(clotkit.__all__)) == len(clotkit.__all__) == 32
    for name in clotkit.__all__:
        obj = getattr(clotkit, name)
        assert obj.__module__ in {f"clotkit.{module}" for module in SUBMODULES}, name
        assert obj is getattr(importlib.import_module(obj.__module__), name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from clotkit import *", namespace)
    assert {name: namespace.get(name) for name in clotkit.__all__} == \
        {name: getattr(clotkit, name) for name in clotkit.__all__}
