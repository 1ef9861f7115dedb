"""Every module-level import in the package is used, and every module-level
private helper is referenced (no linter is installed, so this is the guard)."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "anharmonic").glob("*.py"))
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
