"""Static checks on the package source (standard library only)."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "fplab").glob("*.py"))
CLI = ROOT / "src" / "fplab" / "cli.py"
SCENARIOS = ROOT / "src" / "fplab" / "scenarios.py"


def _exports(tree: ast.Module) -> list[str]:
    """The names in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_exports(tree))
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


def _module_level_scipy_imports(tree: ast.Module) -> list[str]:
    """Imports of scipy that run when the module is imported: every import
    statement outside a function body (class bodies and if/try blocks run at
    import time too)."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return [f"{name} (line {line})" for line, name in found if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_module_level_scipy_import(path):
    # scipy is loaded on first use (fpe's lazy modules, imports inside the
    # functions that call it), so commands that never solve do not load it
    assert _module_level_scipy_imports(ast.parse(path.read_text())) == []


def test_module_level_scipy_import_is_detected():
    tree = ast.parse(
        "import numpy as np, scipy.sparse as sp\n"
        "from scipy import linalg\n"
        "try:\n"
        "    from scipy.sparse import csgraph\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    import scipy\n"
        "    def f(self):\n"
        "        import scipy.linalg\n"
        "def g():\n"
        "    from scipy.sparse import linalg\n"
        "from .scipyish import x\n"
        "lazy = Lazy('scipy.sparse.linalg')\n"
    )
    assert _module_level_scipy_imports(tree) == [
        "scipy.sparse (line 1)", "scipy (line 2)", "scipy.sparse (line 4)", "scipy (line 8)"]


def _bare_number_casts(tree: ast.Module) -> list[str]:
    """Calls of the builtins float and int outside ``_flag_numbers``, the one
    function that turns the text of a flag into numbers."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "_flag_numbers":
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "int")):
            found.append(f"{node.func.id} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_cli_checks_inputs_only_through_the_section_tables():
    # flag values go through the same checks as run-config values
    # (scenarios._resolved, _number, _config_int); a float() or int() in cli.py
    # would be a second check path, as the grid coercion once was
    assert _bare_number_casts(ast.parse(CLI.read_text())) == []


def test_bare_number_cast_is_detected():
    tree = ast.parse(
        "LIMIT = int('3')\n"
        "def _flag_numbers(text):\n"
        "    return [float(v) for v in text.split(',')]\n"
        "def _grid(args):\n"
        "    p.add_argument('--n', type=int)\n"
        "    return Grid2D(float(args.x), np.float64(args.y), round(args.n))\n"
        "class C:\n"
        "    def f(self):\n"
        "        return [int(v) for v in self.x if float(v)]\n"
    )
    assert _bare_number_casts(tree) == [
        "int (line 1)", "float (line 6)", "int (line 9)", "float (line 9)"]


def _run_rebuilds(tree: ast.Module) -> list[str]:
    """Every mention of ``dictionary_for`` (a name, an attribute or an imported
    name) and every call of a ``.solved`` method: the ways a module can build a
    run's dictionary or scenario again instead of reading RunConfig's."""
    found = []
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == "dictionary_for")
                or (isinstance(node, ast.Attribute) and node.attr == "dictionary_for")
                or (isinstance(node, ast.alias) and node.name == "dictionary_for")):
            found.append((node.lineno, "dictionary_for"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "solved"):
            found.append((node.lineno, "solved"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_cli_reads_the_run_from_its_config():
    # RunConfig.from_dict builds a run's scenario and dictionary once; a run and
    # its verification read those, so they cannot disagree on either
    assert _run_rebuilds(ast.parse(CLI.read_text())) == []


def test_run_rebuild_is_detected():
    tree = ast.parse(
        "from .scenarios import (RunConfig,\n"
        "    dictionary_for)\n"
        "def f(cfg, grid):\n"
        "    v = cfg.resolved.solved(grid).vector_field(grid)\n"
        "    d = scenarios.dictionary_for('x', grid)\n"
        "    return cfg.solved.vector_field(grid), cfg.dictionary, solved(v)\n"
    )
    assert _run_rebuilds(tree) == ["dictionary_for (line 2)", "solved (line 4)",
                                   "dictionary_for (line 5)"]


def _runner_rebuilds(tree: ast.Module) -> list[str]:
    """Every call of ``make_scenario`` or ``dictionary_for`` (a name or an attribute)
    in a runner, a function named ``run_*`` or ``_run_*``, in the _RUN_RECIPES table
    or in a function it names, as each recipe names its analysis: the ways a run or
    ``fplab verify`` can build its run's scenario or dictionary again instead of
    reading its RunConfig's."""
    tables = [node for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "_RUN_RECIPES" for t in node.targets)]
    builders = ("make_scenario", "dictionary_for")
    named = {n.id for table in tables for n in ast.walk(table.value)
             if isinstance(n, ast.Name) and n.id not in builders}
    scopes = [(table, "_RUN_RECIPES") for table in tables]
    scopes += [(fn, fn.name) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and (fn.name.lstrip("_").startswith("run_") or fn.name in named)]
    found = []
    for scope, where in scopes:
        for node in ast.walk(scope):
            name = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None))
            if name in builders:
                found.append((node.lineno, f"{name} in {where}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_runners_read_the_run_from_their_config():
    # a runner and each analysis a recipe names take the RunConfig that from_dict
    # resolved and read its scenario and dictionary, so no run solves or analyzes
    # another scenario than `fplab verify` reads
    assert _runner_rebuilds(ast.parse(SCENARIOS.read_text())) == []


def test_runner_rebuild_is_detected():
    tree = ast.parse(
        "def make_scenario(name, grid):\n"
        "    return dictionary_for(name, grid)\n"
        "def run_sweep(cfg):\n"
        "    s = make_scenario('hopf', cfg.domain)\n"
        "    return s, scenarios.dictionary_for('x', cfg.domain), cfg.dictionary\n"
        "class RunConfig:\n"
        "    def from_dict(raw):\n"
        "        return make_scenario(raw), dictionary_for(raw)\n"
        "    def run(self):\n"
        "        return _run_recipe(self)\n"
        "def _run_recipe(cfg):\n"
        "    return [make_scenario(k) for k in cfg]\n"
        "def _sweep_analysis(cfg, v):\n"
        "    def metrics(eps, mu):\n"
        "        return dictionary_for('x', cfg.domain)\n"
        "    return metrics\n"
        "def _unnamed_analysis(cfg, v):\n"
        "    return make_scenario('hopf')\n"
        "_RUN_RECIPES = {'a': _RunRecipe(lambda cfg: run_sweep(cfg), _sweep_analysis),\n"
        "                'b': _RunRecipe(_run_recipe, lambda cfg, v: make_scenario('x'))}\n"
    )
    assert _runner_rebuilds(tree) == ["make_scenario in run_sweep (line 4)",
                                      "dictionary_for in run_sweep (line 5)",
                                      "make_scenario in _run_recipe (line 12)",
                                      "dictionary_for in _sweep_analysis (line 15)",
                                      "make_scenario in _RUN_RECIPES (line 20)"]


def _solve_family_calls(tree: ast.Module) -> list[str]:
    """Every call of ``solve_family`` (a name or an attribute): the places a
    module solves a family and so records it, where a second run loop would be."""
    return [f"solve_family (line {n.lineno})" for n in ast.walk(tree) if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "solve_family"]


def test_scenarios_has_one_solve_loop():
    # every run, its designed control included, is solved and recorded by one
    # loop, so each family's members get the same metrics, solve keys and errors
    assert len(_solve_family_calls(ast.parse(SCENARIOS.read_text()))) == 1


def test_solve_family_call_is_detected():
    tree = ast.parse(
        "from .fpe import solve_family\n"
        "def _recorded(v, families):\n"
        "    return [solve_family(v, s, v.grid) for s in families]\n"
        "def run_pair(v, a, b):\n"
        "    return fpe.solve_family(v, a, v.grid), solve_family, solve_family(v, b, v.grid)\n"
    )
    assert _solve_family_calls(tree) == ["solve_family (line 3)", "solve_family (line 5)",
                                         "solve_family (line 5)"]


def _analysis_imports(tree: ast.Module) -> list[str]:
    """Every import of the ``analysis`` module or of a name from it: the metrics a
    module could compute besides the ones the run's analysis gives."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == "analysis":
            found += [f"{a.name} (line {n.lineno})" for a in n.names]
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            found += [f"{a.name} (line {n.lineno})" for a in n.names
                      if a.name.split(".")[-1] == "analysis"]
    return found


def test_cli_imports_nothing_from_analysis():
    # `fplab verify` compares the summary with what the run's analysis re-derives,
    # so it computes no metric of its own
    assert _analysis_imports(ast.parse(CLI.read_text())) == []


def test_analysis_import_is_detected():
    tree = ast.parse(
        "from .analysis import angular_w1_to_uniform, invariance_residual\n"
        "from . import io as fio, analysis\n"
        "from .scenarios import _SOLVE_KEYS\n"
        "def _cmd_verify(args):\n"
        "    import fplab.analysis\n"
        "    from fplab.analysis import bl_distance as bl\n"
    )
    assert _analysis_imports(tree) == [
        "angular_w1_to_uniform (line 1)", "invariance_residual (line 1)", "analysis (line 2)",
        "fplab.analysis (line 5)", "bl_distance (line 6)"]


def _document_reads(tree: ast.Module) -> list[str]:
    """Calls of a ``load_document`` function or method outside ``_load``, the one
    function that reads a document and refuses one that is not a JSON object."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "_load":
            return
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "load_document")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "load_document")):
            found.append(f"load_document (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_cli_reads_documents_only_through_load():
    assert _document_reads(ast.parse(CLI.read_text())) == []


def test_document_read_is_detected():
    tree = ast.parse(
        "def _load(path, field):\n"
        "    return fio.load_document(path)\n"
        "def _cmd_verify(args):\n"
        "    doc = fio.load_document(args.run)\n"
        "    return load_document(doc), fio.load_document\n"
    )
    assert _document_reads(tree) == ["load_document (line 4)", "load_document (line 5)"]


def _environment_reads(tree: ast.Module) -> list[str]:
    """Every mention of ``environ`` or ``getenv`` (an attribute, a name or an
    imported name): the ways a module can read the process environment."""
    names = ("environ", "getenv")
    found = [(n.lineno, n.attr) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr in names]
    found += [(n.lineno, n.id) for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in names]
    found += [(node.lineno, a.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for a in node.names if a.name in names]
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_environment_reads(path):
    # a run is a function of its flags and config; an environment variable
    # would be an option that no config.json echoes
    assert _environment_reads(ast.parse(path.read_text())) == []


def test_environment_read_is_detected():
    tree = ast.parse(
        "import os\n"
        "from os import getenv as g, environ\n"
        "def f():\n"
        "    return os.environ.get('X', '1'), os.getenv('Y'), environ['Z'], g('W')\n"
        "def h(env=os.environ): return os.path.join('environ', 'getenv')\n"
    )
    assert _environment_reads(tree) == ["environ (line 2)", "getenv (line 2)",
                                        "environ (line 4)", "environ (line 4)",
                                        "getenv (line 4)", "environ (line 5)"]


def _stale_exports(tree: ast.Module) -> list[str]:
    """Names in ``__all__`` that nothing at the module's top level binds."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        else:
            bound |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return [name for name in _exports(tree) if name not in bound]


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


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Names read as an attribute (``x.name`` in a load) anywhere in the tree."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _init_attributes(fn: ast.FunctionDef) -> list[str]:
    """Names of the attributes an ``__init__`` sets on its instance
    (``self.name = ...``, with or without an annotation)."""
    if fn.name != "__init__" or not fn.args.args:
        return []
    this = fn.args.args[0].arg
    targets = [t for node in ast.walk(fn) if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    return [t.attr for t in targets if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name) and t.value.id == this]


def _unread_members(tree: ast.Module, reads: set[str]) -> list[str]:
    """``Class.name`` for each public member of the tree's classes (an annotated
    field, a method or a property defined in the class body, or an attribute
    its ``__init__`` sets) whose name is not in ``reads``. Members are matched
    by name only, so a member that shares its name with another class's
    attribute read elsewhere (``value``, say) escapes the check."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name, *_init_attributes(node)]
            else:
                continue
            found += [f"{cls.name}.{name}" for name in names
                      if not name.startswith("_") and name not in reads]
    return found


def _reads_of(paths) -> set[str]:
    return set().union(*(_attribute_reads(ast.parse(p.read_text())) for p in paths))


# public members that src and perfbench leave unread, each with the reason it
# stays; a test must still read each of them
UNREAD_MEMBERS = {
    "RepellingVerdict.mass_near": "repelling-equilibrium verdict that ROADMAP item 5 reports",
    "RepellingVerdict.template": "repelling-equilibrium verdict that ROADMAP item 5 reports",
    "RepellingVerdict.exponent": "repelling-equilibrium verdict that ROADMAP item 5 reports",
    "Scenario.default_grid": "ROADMAP item 7 (FOUND make_scenario) decides whether it stays",
    # an exception's payload lets a caller branch on the failure without
    # parsing its message, which carries the same value
    "StencilOverflowError.face": "error payload: the face whose Peclet number overflowed",
    "RatioInfeasibleError.requested_ratio": "error payload: the noise ratio that was refused",
    "CertificateFailError.condition": "error payload: the certificate condition that failed",
    "ConfigError.field": "error payload: the config entry to fix",
}


def test_every_public_member_is_read_in_src_or_perfbench():
    # state or a method that only tests reach is dead weight on every object
    # that carries it, or a second way to do a job src does another way
    reads = _reads_of(SRC + sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(m for p in SRC for m in _unread_members(ast.parse(p.read_text()), reads)) \
        == sorted(UNREAD_MEMBERS)
    test_reads = _reads_of(sorted((ROOT / "tests").glob("*.py")))
    assert [m for m in UNREAD_MEMBERS if m.split(".")[1] not in test_reads] == []


def test_unread_member_is_detected():
    tree = ast.parse(
        "import functools\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: int\n"
        "    stored: dict = field(default_factory=dict)\n"
        "    ratio = 2.0\n"
        "    def used(self): return self.kept\n"
        "    def planted(self): pass\n"
        "    def _private(self): pass\n"
        "    @property\n"
        "    def shown(self): return 1\n"
        "    @functools.cached_property\n"
        "    def cached(self): return 2\n"
        "class B:\n"
        "    written: float\n"
        "    def __len__(self): return 0\n"
        "class E(Exception):\n"
        "    def __init__(me, face, z):\n"
        "        me.face = face\n"
        "        me.z: float = z\n"
        "        me._seen = other.late = None\n"
        "        super().__init__(f'{face}: {z}')\n"
        "    def reset(self):\n"
        "        self.later = 0\n"
        "def f(a, b, e):\n"
        "    b.written = a.kept\n"
        "    return getattr(a, 'stored'), a.used(), a.cached, e.face, e.reset\n"
    )
    assert _unread_members(tree, _attribute_reads(tree)) == [
        "A.stored", "A.planted", "A.shown", "B.written", "E.z"]


def _name_reads(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Names the tree reads, as a name or as an attribute, outside the
    definition (def or class) named ``skip``."""
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == skip:
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _unread_exports(trees: dict, bench_reads: set[str]) -> list[str]:
    """``module: name`` for each name in a module's ``__all__`` that no module of
    ``trees`` ({name: tree}) reads outside the name's own definition, and that is
    not in ``bench_reads``. A re-export (an import) is not a read."""
    reads = {m: _name_reads(t) for m, t in trees.items()}
    return [f"{m}: {name}" for m, tree in trees.items() for name in _exports(tree)
            if name not in bench_reads and name not in _name_reads(tree, skip=name)
            and not any(name in r for other, r in reads.items() if other != m)]


# exported names that only tests read, each with the reason it stays
UNREAD_EXPORTS = {
    "design.py: lemma41_constants": "paper check (Lemma 4.1) for ROADMAP item 5 to wire into runs",
    "design.py: quadratic_certificate": "paper check (repelling equilibrium) for ROADMAP item 5",
    "design.py: verify_repelling_equilibrium": "paper check (repelling equilibrium) for ROADMAP item 5",
    "analysis.py: anti_lyapunov_lower_bound": "paper check (anti-Lyapunov growth) for ROADMAP item 5",
    "fields.py: isotropic_diffusion": "field constructor of the public API",
    "fields.py: sample_diffusion_field": "field constructor of the public API",
    "__init__.py: isotropic_diffusion": "field constructor of the public API",
    "__init__.py: sample_diffusion_field": "field constructor of the public API",
    "__init__.py: rebin_measure": "ROADMAP item 1's disc_error_est rebins each fine measure",
}


def test_every_export_is_read_in_src_or_perfbench():
    # a library path that only tests reach is a second way to do a job src does
    # another way, or a setting with one value in use
    bench = (ROOT / "perfbench").glob("*.py")
    bench_reads = set().union(*(_name_reads(t) | {n.rsplit(".", 1)[-1] for n in _fplab_names(t)}
                                for t in map(ast.parse, map(Path.read_text, bench))))
    trees = {p.name: ast.parse(p.read_text()) for p in SRC}
    assert sorted(_unread_exports(trees, bench_reads)) == sorted(UNREAD_EXPORTS)


def test_unread_export_is_detected():
    trees = {
        "a.py": ast.parse(
            "__all__ = ['used', 'recursive', 'benched', 'planted', 'Self']\n"
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def benched(): pass\n"
            "def planted(): pass\n"
            "class Self:\n"
            "    def copy(self): return Self()\n"),
        "b.py": ast.parse(
            "from .a import planted, used\n"
            "__all__ = ['planted']\n"
            "x = used()\n"),
    }
    assert _unread_exports(trees, {"benched"}) == [
        "a.py: recursive", "a.py: planted", "a.py: Self", "b.py: planted"]


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


def _file_writes(tree: ast.Module) -> list[str]:
    """Calls of the builtin ``open`` and of any ``.open``, ``.write_text``,
    ``.write_bytes`` or ``.mkdir`` method: the ways a module can write a file or
    make a directory."""
    calls = [(n.lineno, n.func.id if isinstance(n.func, ast.Name) else n.func.attr)
             for n in ast.walk(tree) if isinstance(n, ast.Call) and (
                 (isinstance(n.func, ast.Name) and n.func.id == "open")
                 or (isinstance(n.func, ast.Attribute)
                     and n.func.attr in ("open", "write_text", "write_bytes", "mkdir")))]
    return [f"{name} (line {line})" for line, name in sorted(calls)]


NOT_IO = [p for p in SRC if p.name != "io.py"]


@pytest.mark.parametrize("path", NOT_IO, ids=[p.name for p in NOT_IO])
def test_only_io_writes_files(path):
    # every file the package writes goes through io (save_document, save_csv),
    # which makes its directory, so its formats are decided in one module
    assert _file_writes(ast.parse(path.read_text())) == []


def test_file_write_is_detected():
    tree = ast.parse(
        "from pathlib import Path\n"
        "def f(p, doc):\n"
        "    p.write_text(doc)\n"
        "    with open(p, 'w') as fh:\n"
        "        fh.write(doc)\n"
        "    Path(p).write_bytes(b'')\n"
        "    p.parent.mkdir(parents=True, exist_ok=True)\n"
        "    return p.read_text(), gzip.open(p), write_text(p), mkdir(p)\n"
    )
    assert _file_writes(tree) == ["write_text (line 3)", "open (line 4)",
                                  "write_bytes (line 6)", "mkdir (line 7)", "open (line 8)"]


def test_scenario_choices_come_from_the_tables():
    # the CLI keeps no list of scenario or schedule shape names of its own
    import argparse

    from fplab.cli import _parser
    from fplab.scenarios import _ISOLATION_RECIPES, SCENARIOS, SHAPES

    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(dest):
        return {cmd: a.choices for cmd, p in sub.choices.items()
                for a in p._actions if a.dest == dest}

    scenarios = choices("scenario")
    assert scenarios.pop("design-noise") == sorted({s for s, _ in _ISOLATION_RECIPES})
    assert scenarios == {cmd: list(SCENARIOS)
                         for cmd in ("solve", "sample", "find-attractor", "verify-lyapunov")}
    assert choices("shape") == {cmd: list(SHAPES) for cmd in ("hopf", "solve", "sample")}


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
