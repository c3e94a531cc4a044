"""Static checks on the package source (standard library only)."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "fplab").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads;
    names listed in ``__all__`` count as read (they are re-exported)."""
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_detected():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .x import a, b as c, d\n"
        "__all__ = ['d']\n"
        "def f(p: c) -> None:\n"
        "    return os.path.join(p)\n"
    )
    assert _unused_imports(tree) == ["sys (line 2)", "a (line 3)"]


def _stale_exports(tree: ast.Module) -> list[str]:
    """Names in ``__all__`` that nothing at the module's top level binds."""
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        else:
            bound |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_all_names_are_bound(path):
    assert _stale_exports(ast.parse(path.read_text())) == []


def test_stale_export_is_detected():
    tree = ast.parse(
        "from .x import a, b as c\n"
        "import os.path\n"
        "K = 1\n"
        "def f(): g = 2\n"
        "class C: pass\n"
        "__all__ = ['a', 'c', 'os', 'K', 'f', 'C', 'b', 'g', 'gone']\n"
    )
    assert _stale_exports(tree) == ["b", "g", "gone"]


def test_format_tags_live_in_io_formats():
    # a document format tag written anywhere but io.FORMATS would let two
    # modules disagree on a version
    from fplab.io import FORMATS

    tags = {}
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith("fplab/") and "@" in node.value):
                tags.setdefault(node.value, []).append(path.name)
    assert all(files == ["io.py"] for files in tags.values()), tags
    assert set(tags) == set(FORMATS.values())


def test_scenario_choices_come_from_the_tables():
    # the CLI keeps no list of scenario names of its own
    import argparse

    from fplab.cli import _parser
    from fplab.scenarios import _ISOLATION_RECIPES, SCENARIOS

    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = {cmd: a.choices for cmd, p in sub.choices.items()
               for a in p._actions if a.dest == "scenario"}
    assert choices.pop("design-noise") == sorted({s for s, _ in _ISOLATION_RECIPES})
    assert choices == {cmd: list(SCENARIOS)
                       for cmd in ("solve", "sample", "find-attractor", "verify-lyapunov")}
