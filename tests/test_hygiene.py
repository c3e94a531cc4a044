"""Static checks on the package source (standard library only)."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "fplab").glob("*.py"))


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


def _fplab_names(tree: ast.Module) -> set[str]:
    """Dotted names a source reads from fplab: every name a ``from fplab...
    import`` binds and, in the function holding that import, every ``name.attr``
    and ``(name, "attr", ...)`` tuple on a name it bound."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fplab":
                bound |= {a.asname or a.name: f"{node.module}.{a.name}" for a in node.names}
        found |= set(bound.values())
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base, attr = node.value.id, node.attr
            elif (isinstance(node, ast.Tuple) and len(node.elts) > 1
                  and isinstance(node.elts[0], ast.Name) and isinstance(node.elts[1], ast.Constant)):
                base, attr = node.elts[0].id, node.elts[1].value
            else:
                continue
            if base in bound:
                found.add(f"{bound[base]}.{attr}")
    return found


def _resolves(dotted: str) -> bool:
    """Whether the longest importable module prefix of ``dotted`` has the rest
    as a chain of attributes."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_fplab_names_are_collected():
    tree = ast.parse(
        "def f():\n"
        "    from fplab import fpe, Grid2D\n"
        "    from fplab.cli import main as m\n"
        "    other.attr\n"
        "    return [(fpe, 'solve', 'label'), fpe.assemble, (other, 'x')]\n"
        "def g():\n"
        "    fpe.ignored\n"
    )
    assert _fplab_names(tree) == {"fplab.fpe", "fplab.Grid2D", "fplab.cli.main",
                                  "fplab.fpe.solve", "fplab.fpe.assemble"}
    assert _resolves("fplab.fpe.assemble") and _resolves("fplab.Grid2D")
    assert not _resolves("fplab.fpe.no_such_name") and not _resolves("fplab.no_such_module")


HARNESS = ("child.py", "workloads.py")


@pytest.mark.parametrize("name", HARNESS)
def test_benchmark_harness_names_resolve(name):
    # the harness imports, wraps and traces fplab names; one that is gone
    # would show up only as a crashed traced or check run
    names = _fplab_names(ast.parse((ROOT / "perfbench" / name).read_text()))
    assert names
    assert [n for n in sorted(names) if not _resolves(n)] == []


def test_benchmark_harness_targets_are_collected():
    names = set().union(*(_fplab_names(ast.parse((ROOT / "perfbench" / n).read_text()))
                          for n in HARNESS))
    assert {"fplab.fpe.assemble", "fplab.sampler.occupation_measure",
            "fplab.dynamics.verify_uniform_lyapunov", "fplab.scenarios.build_schedule",
            "fplab.fields.isotropic_schedule", "fplab.io.save_document",
            "fplab.cli.main", "fplab.isotropic_schedule"} <= names
