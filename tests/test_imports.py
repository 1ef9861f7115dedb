"""Every module-level import in the package is used, every module-level
private helper is referenced (no linter is installed, so this is the guard),
no module imports scipy at module level, and the one function that imports
it at all is ``resummation._spectrum``, the spectral reference of
``resum``: every other subcommand, and ``numeric_s1``, runs without it.
The module-level guards read ``tree.body`` only; the function-level guard
walks every function body."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
PACKAGE = sorted((SRC / "anharmonic").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]  # __init__ re-exports by design


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_guard_sees_unused_imports():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n") \
        == ["os (line 1)", "b (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_level_scipy(source: str) -> list[str]:
    """Every ``import scipy...`` or ``from scipy... import`` in ``tree.body``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


def test_guard_sees_module_level_scipy():
    source = ("import numpy as np, scipy.linalg\n"
              "from scipy.integrate import quad\n"
              "from .scipy import x\n"
              "def f():\n    from scipy.linalg import cho_factor\n")
    assert module_level_scipy(source) == ["scipy.linalg (line 1)",
                                          "scipy.integrate (line 2)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_level_scipy(path):
    assert module_level_scipy(path.read_text(encoding="utf-8")) == []


_FRESH_CLI = textwrap.dedent("""
    import sys
    from anharmonic.cli import main
    from anharmonic.model import kappa_model
    from anharmonic.variational import numeric_s1

    def scipy_loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    out = sys.argv[1]
    with open(f"{out}/series.json", "w") as f:
        f.write('["1/2", "3/4", "-21/8", "333/16", "-30885/128"]')
    for i, argv in enumerate((
            ["expand-ground", "--model", "builtin:quartic"],
            ["expand-excited", "--model", "builtin:quartic", "--levels", "1"],
            ["sternberg", "--model", "builtin:quartic"],
            ["rs", "--kappa", "2"],
            ["compare", "--model", "builtin:quartic"],
            ["check-model", "--model", "builtin:quartic"],
            ["resum", "--series", f"{out}/series.json", "--mu", "0.2",
             "--pade", "2,2"],
            ["scan", "--engine", "closed", "--model", "builtin:sectic",
             "--grid=-1:1:5"],
            ["variational", "--model", "builtin:quartic", "--point", "0.7"],
            ["scan", "--engine", "variational", "--model", "builtin:quartic",
             "--grid=0.1:0.7:3"],
            ["flow", "--model", "builtin:quartic", "--point", "0.8"],
            ["flow", "--model", "builtin:quartic", "--point", "0.8",
             "--forward"])):
        assert main([*argv, "--output", f"{out}/{i}.json"]) == 0, argv
    assert numeric_s1(kappa_model(2), [0.5]) > 0.0
    assert scipy_loaded() == [], scipy_loaded()
    assert main(["resum", "--series", "builtin:quartic-ground", "--mu", "0.2",
                 "--output", f"{out}/resum.json"]) == 0
    assert "scipy.linalg" in sys.modules
    assert "scipy.integrate" not in sys.modules, scipy_loaded()
""")


def test_only_the_spectral_reference_loads_scipy(tmp_path):
    """A fresh interpreter (this one holds scipy already) runs the six exact
    subcommands, a ``resum`` without a reference, a sextic
    ``scan --engine closed`` (its S_0 by numpy quadrature), ``variational``,
    ``scan --engine variational``, a backward and a forward ``flow`` and
    ``numeric_s1`` without loading scipy; a ``resum`` with a reference then
    loads ``scipy.linalg`` but not ``scipy.integrate``."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _FRESH_CLI, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def scipy_importers(sources: dict[str, str]) -> list[str]:
    """Every function, as module.qualified_name, with an import of scipy
    or a scipy submodule anywhere in its body (a nested function's import
    counts for the nested function)."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, [*scope, child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if scope and any(n.split(".")[0] == "scipy" for n in names):
                found.append(f"{module}.{'.'.join(scope)}")
            visit(child, module, scope)

    for module, text in sources.items():
        visit(ast.parse(text), module, [])
    return sorted(set(found))


def test_guard_sees_scipy_importers():
    source = ("import scipy.integrate\n"
              "def f():\n    from scipy.integrate import quad\n"
              "def g():\n    from scipy import integrate\n"
              "class C:\n    def h(self):\n        if True:\n"
              "            import scipy.integrate as si\n"
              "def k():\n    def inner():\n        from scipy.linalg import eigh\n"
              "def m():\n    import numpy.linalg, scipy\n"
              "def n():\n    from .scipy import x\n    import scipyx\n")
    assert scipy_importers({"m": source}) == ["m.C.h", "m.f", "m.g", "m.k.inner",
                                              "m.m"]


def test_only_the_spectral_reference_imports_scipy():
    assert scipy_importers(
        {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == [
        "resummation._spectrum"]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names with one leading underscore that no module of
    ``sources`` (name -> text) references beyond their definition."""
    defined, used = [], set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if name not in used]


def test_guard_sees_dead_private_names():
    sources = {"a": "_X = 1\n_Y = 2\ndef _f():\n    return _Y\n"
                    "def _g():\n    pass\n__all__ = []\n",
               "b": "from a import _g\n"}
    assert dead_private_names(sources) == ["a: _X (line 1)", "a: _f (line 3)"]


def test_no_dead_private_helpers():
    assert dead_private_names(
        {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


def key_layout_uses(source: str) -> list[str]:
    """Every name, import or attribute that reads the packed-key layout of a
    series (its slot constants), or the term map ``_map`` of an older design
    of it, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in {"SLOT_BITS", "MAX_TRUNC", "_map"}:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in {"SLOT_BITS", "MAX_TRUNC"}:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name in {"SLOT_BITS", "MAX_TRUNC"}:
            found.append((node.lineno, node.name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_guard_sees_key_layout_uses():
    source = ("from .series import SLOT_BITS\n"
              "x = k >> SLOT_BITS & series.MAX_TRUNC\n"
              "y = s._map\n_map = {}\n")
    assert key_layout_uses(source) == ["SLOT_BITS (line 1)", "MAX_TRUNC (line 2)",
                                       "SLOT_BITS (line 2)", "_map (line 3)"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "series.py"],
                         ids=lambda p: p.name)
def test_only_series_knows_the_key_layout(path):
    assert key_layout_uses(path.read_text(encoding="utf-8")) == []


def oracle_engine_imports(source: str) -> list[str]:
    """Every import, at any depth, by which a module takes anything from the
    transport engine (``transport``, ``hjformal``) or anything but
    ``format_rational`` from ``series``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):  # import anharmonic.series
            pairs = [(alias.name.split(".")[1], "*") for alias in node.names
                     if alias.name.startswith("anharmonic.")]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "anharmonic"):
            module = (node.module or "").removeprefix("anharmonic").lstrip(".")
            pairs = ([(module, alias.name) for alias in node.names] if module
                     else [(alias.name, "*") for alias in node.names])  # from . import x
        else:
            continue
        found += [(node.lineno, f"{module}.{name}") for module, name in pairs
                  if module in {"transport", "hjformal"}
                  or (module == "series" and name != "format_rational")]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_guard_sees_oracle_engine_imports():
    source = ("from .series import format_rational, PolySeries\n"
              "from .errors import OrderTooHigh\n"
              "def f():\n    from .transport import _plain\n"
              "    from . import hjformal, resummation\n"
              "import anharmonic.series\n"
              "from anharmonic.hjformal import solve_hj_formal\n")
    assert oracle_engine_imports(source) == [
        "series.PolySeries (line 1)", "transport._plain (line 4)",
        "hjformal.* (line 5)", "series.* (line 6)",
        "hjformal.solve_hj_formal (line 7)"]


def test_rsoracle_shares_nothing_with_the_transport_engine():
    source = (SRC / "anharmonic" / "rsoracle.py").read_text(encoding="utf-8")
    assert oracle_engine_imports(source) == []
