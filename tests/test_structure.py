"""Modules of the package reach each other only through public names, and
their imports form no cycle. Every module-level private name is used.

Importing the package leaves scipy.linalg unloaded, and the learning rules
are decided in dynamics alone: the simulator names no rule class, and
dynamics.derivative evaluates a rule's update with no formula of its own.
Every public callable of a layer module is a class or a plain function.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
import typing
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradplay"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _sibling(node: ast.ImportFrom):
    """Sibling module named by `from .x import ...` or `from gradplay.x import ...`."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("gradplay."):
        return node.module.split(".", 1)[1]
    return None


def private_uses(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module_names = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node)
            from_package = (node.level == 1 and node.module is None) or (
                node.level == 0 and node.module == "gradplay"
            )
            for alias in node.names:
                if from_package and alias.name in MODULES:
                    module_names.add(alias.asname or alias.name)
                elif sibling in MODULES and _private(alias.name):
                    found.append(f"{path.name}:{node.lineno}: from {sibling} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if alias.asname and parts[0] == "gradplay" and parts[-1] in MODULES:
                    module_names.add(alias.asname)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _private(node.attr):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in module_names:
            found.append(f"{path.name}:{node.lineno}: {base.id}.{node.attr}")
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "gradplay"
            and base.attr in MODULES
        ):
            found.append(f"{path.name}:{node.lineno}: gradplay.{base.attr}.{node.attr}")
    return found


def sibling_imports(path: Path, modules: set) -> set:
    """Sibling modules that path imports anywhere, inside functions too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, None), (0, "gradplay")):
                found.update(alias.name for alias in node.names)
            else:
                found.add(_sibling(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "gradplay" and len(parts) > 1:
                    found.add(parts[1])
    return found & modules


def import_graph(package: Path) -> dict:
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    return {m: sibling_imports(package / f"{m}.py", modules) for m in sorted(modules)}


def find_cycle(graph: dict) -> list:
    """One import cycle as [a, b, ..., a], or [] when the graph has none."""
    done = set()
    path = []

    def visit(m):
        path.append(m)
        for n in sorted(graph[m]):
            if n in path:
                return path[path.index(n):] + [n]
            if n not in done:
                cycle = visit(n)
                if cycle:
                    return cycle
        path.pop()
        done.add(m)
        return []

    for m in graph:
        cycle = [] if m in done else visit(m)
        if cycle:
            return cycle
    return []


def _defined_names(node) -> list:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _uses(node, name: str) -> bool:
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.Attribute) and node.attr == name


def dead_private_names(package: Path) -> list:
    """Module-level private names used nowhere in package outside their own definition.

    A use is a load of the name or an attribute of that name, in any scope.
    """
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    found = []
    for file, tree in trees.items():
        for stmt in tree.body:
            own = {id(n) for n in ast.walk(stmt)}
            for name in filter(_private, _defined_names(stmt)):
                used = any(
                    _uses(n, name) and id(n) not in own
                    for other in trees.values()
                    for n in ast.walk(other)
                )
                if not used:
                    found.append(f"{file}:{stmt.lineno}: {name}")
    return found


def test_package_found():
    assert {"games", "linearize", "simulate", "cli"} <= MODULES


def test_no_private_names_across_modules():
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in private_uses(path)]
    assert found == []


def test_detector_flags_private_access(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from . import simulate as sim\n"
        "from .linearize import _local_matrix_raw, assemble_closed_loop\n"
        "import gradplay.cli\n"
        "def f():\n"
        "    from .simulate import _loop_matrix\n"
        "    return sim._propagate_regions, gradplay.cli._emit, sim.__name__\n"
    )
    assert private_uses(src) == [
        "probe.py:2: from linearize import _local_matrix_raw",
        "probe.py:5: from simulate import _loop_matrix",
        "probe.py:6: sim._propagate_regions",
        "probe.py:6: gradplay.cli._emit",
    ]


def test_no_import_cycles():
    assert find_cycle(import_graph(PACKAGE)) == []


def test_detector_flags_import_cycle(tmp_path):
    (tmp_path / "a.py").write_text("from . import b\n")
    (tmp_path / "b.py").write_text("def f():\n    from .c import g\n    return g\n")
    (tmp_path / "c.py").write_text("import numpy\nimport gradplay.a\n")
    (tmp_path / "d.py").write_text("from gradplay.a import h\nfrom gradplay import c\n")
    graph = import_graph(tmp_path)
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a", "c"}}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    (tmp_path / "c.py").write_text("import numpy\n")
    assert find_cycle(import_graph(tmp_path)) == []


def test_no_dead_private_names():
    assert dead_private_names(PACKAGE) == []


def test_detector_flags_dead_private_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "def _helper(n):\n"
        "    return _helper(n - 1) if n else _LIMIT\n"
        "class _Box:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\ndef f():\n    return a._Box()\n")
    assert dead_private_names(tmp_path) == ["a.py:2: _UNUSED", "a.py:3: _helper"]


def test_import_leaves_scipy_linalg_unloaded():
    # only check_mode_support needs scipy.linalg; it imports it on first use
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, gradplay, gradplay.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


RULES = {"GradientPlay", "HigherOrderGradientPlay", "Replicator", "SmoothFictitiousPlay"}


def names_in(path: Path) -> set:
    """Identifiers, attribute names, imported names and string constants in path's code."""
    return names_under(ast.parse(path.read_text(encoding="utf-8")))


def names_under(tree: ast.AST) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_rule_decision_stays_in_dynamics():
    # the simulator calls each rule's own update; only the spec schema builds the rules
    assert names_in(PACKAGE / "simulate.py") & RULES == set()
    fixed_order = {"Replicator", "SmoothFictitiousPlay"}
    outside = {"dynamics", "cli", "__init__"}
    found = {p.stem: names_in(p) & fixed_order for p in sorted(PACKAGE.glob("*.py"))}
    assert {m: names for m, names in found.items() if names and m not in outside} == {}


def test_detector_finds_rule_names(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from .dynamics import Replicator as R\n"
        "from . import dynamics as dyn\n"
        "def f(s):\n"
        "    return isinstance(s, dyn.SmoothFictitiousPlay) or getattr(dyn, 'GradientPlay')\n"
        "# HigherOrderGradientPlay in a comment is not a name\n"
    )
    assert names_in(src) & RULES == {"Replicator", "SmoothFictitiousPlay", "GradientPlay"}


# the rule formulas: projection, logit, replicator mean
FORMULAS = {
    "project_to_simplex",
    "project_on_support",
    "SupportProjection",
    "exp",
    "sum",
    "mean",
    "reduce",
    "dot",
}


def derivative_formulas(path: Path) -> tuple:
    """(whether derivative calls spec.update, the rule formulas its body names)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "derivative"]
    calls_update = any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "update"
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "spec"
        for n in ast.walk(fn)
    )
    return calls_update, names_under(fn) & FORMULAS


def test_each_rule_formula_is_written_once():
    # derivative builds the rule input and evaluates one row of spec.update;
    # smooth FP's update is the only logit map
    assert derivative_formulas(PACKAGE / "dynamics.py") == (True, set())
    dynamics = importlib.import_module("gradplay.dynamics")
    package = importlib.import_module("gradplay")
    assert "softmax" not in dynamics.__all__ and not hasattr(package, "softmax")


def test_detector_finds_rule_formulas(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "import numpy as np\n"
        "def derivative(spec, x, p):\n"
        "    e = np.exp(p - p.max())\n"
        "    return project_to_simplex(x + p) - x, x * (p - np.add.reduce(x * p)), e\n"
    )
    assert derivative_formulas(src) == (False, {"exp", "project_to_simplex", "reduce"})
    src.write_text("def derivative(spec, x, z, t):\n    return spec.update(x, z, t)\n")
    assert derivative_formulas(src) == (True, set())


# a call tracer wraps the plain functions named in these modules' __all__; a
# callable of another kind (a functools.cache wrapper, a partial, a builtin)
# would run untraced and drop out of its layer's counts
LAYERS = ("games", "simplex", "dynamics", "linearize", "analysis", "simulate", "cli")


def non_function_exports(module) -> list:
    """__all__ names bound to a callable other than a class, type alias or plain function."""
    return [
        name
        for name in module.__all__
        if callable(obj := getattr(module, name))
        and not inspect.isclass(obj)
        and typing.get_origin(obj) is None
        and not inspect.isfunction(obj)
    ]


def test_layer_exports_are_classes_or_plain_functions():
    found = {
        m: non_function_exports(importlib.import_module(f"gradplay.{m}")) for m in LAYERS
    }
    assert {m: names for m, names in found.items() if names} == {}


def test_detector_flags_wrapped_exports():
    probe = types.ModuleType("probe")
    exec(
        "import functools\n"
        "from typing import Union\n"
        "__all__ = ['Box', 'Spec', 'plain', 'short', 'cached', 'bound', 'builtin', 'LIMIT']\n"
        "class Box:\n"
        "    pass\n"
        "Spec = Union[Box, int]\n"
        "def plain(k):\n"
        "    return k\n"
        "short = lambda k: k\n"
        "cached = functools.cache(plain)\n"
        "bound = functools.partial(plain, 2)\n"
        "builtin = len\n"
        "LIMIT = 3\n",
        vars(probe),
    )
    assert non_function_exports(probe) == ["cached", "bound", "builtin"]
