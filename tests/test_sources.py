"""Static checks on the package sources (stdlib ``ast``; no linter needed)."""

import ast
import inspect
from pathlib import Path

import pytest

import ctsbisim
from ctsbisim.bdd import BddManager
from ctsbisim.engine import BddOps, ExplicitOps, build_problem, greatest_bisimulation
from ctsbisim.features import FeatureUniverse
from ctsbisim.convert import convert_model
from ctsbisim.models import fts_to_lats
from ctsbisim.poset import ConditionPoset

PACKAGE = Path(ctsbisim.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every module a module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_assert_statements(module):
    # ``python -O`` strips asserts; invariants raise typed errors instead
    tree = ast.parse((PACKAGE / module).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


# --- no cache that outlives a check ----------------------------------------------------

CACHE_DECORATORS = {"lru_cache", "cache"}
CONTAINER_NODES = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
CONTAINER_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter", "deque"}
MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
}


def cache_decorators(tree: ast.Module) -> list[int]:
    """Lines that use ``functools.lru_cache``/``functools.cache``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in CACHE_DECORATORS for alias in node.names):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHE_DECORATORS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            lines.append(node.lineno)
    return lines


def module_containers(tree: ast.Module) -> set[str]:
    """Names a module binds to a dict, set or list at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, CONTAINER_NODES) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in CONTAINER_CALLS
        ):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def mutated_module_containers(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every place a function mutates a module-level container:
    a subscript store or delete, a mutating method call, or a ``global``
    rebinding (which an augmented assignment needs too)."""
    names = module_containers(tree)
    hits = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                hits.extend((name, node.lineno) for name in node.names if name in names)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
                if isinstance(target, ast.Name) and target.id in names:
                    hits.append((target.id, node.lineno))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if node.func.attr in MUTATING_METHODS and isinstance(owner, ast.Name) and owner.id in names:
                    hits.append((owner.id, node.lineno))
    return hits


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_cache_outlives_a_call(module):
    # memos live on per-problem objects (an ops object, a BDD manager, a
    # closure of one build), so repeated inputs cannot be served from an
    # earlier check's work
    tree = ast.parse((PACKAGE / module).read_text())
    assert cache_decorators(tree) == []
    assert mutated_module_containers(tree) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("import functools\n@functools.lru_cache\ndef f(x): return x\n", "decorator"),
        ("from functools import cache\n", "decorator"),
        ("MEMO = {}\ndef f(x):\n    MEMO[x] = 1\n", "container"),
        ("SEEN = set()\ndef f(x):\n    SEEN.add(x)\n", "container"),
        ("ROWS: list = []\ng = lambda x: ROWS.append(x)\n", "container"),
        ("N = []\ndef f():\n    global N\n    N = [1]\n", "container"),
        ("NAMES = {'a': 1}\ndef f(x):\n    return NAMES[x]\n", None),
        ("class C:\n    def __init__(self):\n        self.memo = {}\n    def f(self, x):\n        self.memo[x] = 1\n", None),
    ],
)
def test_cache_check_flags_what_it_should(source, flagged):
    tree = ast.parse(source)
    assert bool(cache_decorators(tree)) == (flagged == "decorator")
    assert bool(mutated_module_containers(tree)) == (flagged == "container")


# --- no definition without a reference --------------------------------------------------

REPO = PACKAGE.parent.parent
REFERENCE_ROOTS = ("src", "tests", "perfbench")


def definitions(tree: ast.Module) -> set[str]:
    """Names of the non-dunder functions, methods and classes a module defines."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads or binds as a ``Name``, an ``Attribute`` or an import alias."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name.split(".")[-1], node.asname or node.name))
    return names


def test_every_definition_is_referenced():
    referenced = set()
    for root in REFERENCE_ROOTS:
        for path in (REPO / root).rglob("*.py"):
            referenced |= referenced_names(ast.parse(path.read_text()))
    unreferenced = {
        "%s:%s" % (module, name)
        for module in MODULES
        for name in definitions(ast.parse((PACKAGE / module).read_text())) - referenced
    }
    assert sorted(unreferenced) == []


@pytest.mark.parametrize(
    "source, unreferenced",
    [
        ("def f(): pass\n", {"f"}),
        ("class C:\n    def m(self): pass\n", {"C", "m"}),
        ("def f(): pass\ng = f\n", set()),
        ("class C:\n    def m(self): pass\nC().m()\n", set()),
        ("from mod import f\ndef f(): pass\n", set()),
        ("def __call__(self): pass\n", set()),
    ],
)
def test_reference_check_flags_what_it_should(source, unreferenced):
    tree = ast.parse(source)
    assert definitions(tree) - referenced_names(tree) == unreferenced


# --- one place rejects an unclosed explicit guard ----------------------------------------


def raising_scopes(tree: ast.Module, exc_name: str) -> list[str]:
    """Qualified names of the functions and classes whose bodies raise ``exc_name``."""
    scopes = []

    def visit(node, qualname):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == exc_name:
                scopes.append(".".join(qualname) or "<module>")
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, qualname + (child.name,) if named else qualname)

    visit(tree, ())
    return scopes


def test_only_lats_init_rejects_an_unclosed_guard():
    # conversions hand their guard bits to ``Lats``, which closes or rejects them
    tree = ast.parse((PACKAGE / "models.py").read_text())
    assert raising_scopes(tree, "GuardNotDownwardClosed") == ["Lats.__init__"]


@pytest.mark.parametrize(
    "source, scopes",
    [
        ("raise E('x')\n", ["<module>"]),
        ("class C:\n    def f(self):\n        raise E\n", ["C.f"]),
        ("def f():\n    def g():\n        raise E()\n    raise E()\n", ["f.g", "f"]),
        ("def f():\n    raise ValueError('E')\n", []),
        ("def f():\n    try:\n        pass\n    except E:\n        raise\n", []),
    ],
)
def test_raise_check_flags_what_it_should(source, scopes):
    assert raising_scopes(ast.parse(source), "E") == scopes


# --- the engine alone reads a fixpoint's history -----------------------------------------


def attribute_uses(tree: ast.Module, names: set[str]) -> list[tuple[str, int]]:
    """(attribute, line) of every read or store of an attribute named in ``names``."""
    return [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "engine.py"])
def test_only_the_engine_reads_history(module):
    # ``BisimResult.separation`` is the one reader of the (round, old value) format
    tree = ast.parse((PACKAGE / module).read_text())
    assert attribute_uses(tree, {"history"}) == []


def test_the_game_reads_no_backend():
    # conditions come from the problem (``down_of``, ``entry_holds``,
    # ``cond_count``), so the game refuses no result for its backend or history
    tree = ast.parse((PACKAGE / "game.py").read_text())
    assert attribute_uses(tree, {"poset"}) == []
    assert "PreconditionViolation" not in referenced_names(tree)


SOLVER = {"greatest_bisimulation", "build_problem", "_descend", "_transfer"}


def test_the_game_calls_no_solver():
    # the game plays the result it is given; the caller chose its backend and precedence
    assert referenced_names(ast.parse((PACKAGE / "game.py").read_text())) & SOLVER == set()


@pytest.mark.parametrize(
    "source, reads",
    [
        ("from .engine import BisimResult, greatest_bisimulation\n", {"greatest_bisimulation"}),
        ("def f(l1, l2):\n    return engine.build_problem(l1, l2)\n", {"build_problem"}),
        ("matrix = _descend(problem, _transfer)\n", {"_descend", "_transfer"}),
        ("def f(result):\n    return result.problem.succ_x\n", set()),
        ('"""greatest_bisimulation solves"""\n', set()),
    ],
)
def test_solver_check_flags_what_it_should(source, reads):
    assert referenced_names(ast.parse(source)) & SOLVER == reads


def keyword_uses(tree: ast.Module, name: str) -> list[int]:
    """Lines of the calls that pass the keyword argument ``name``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(kw.arg == name for kw in node.keywords)
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_passes_keep_trace(module):
    # a solve records no history; ``BisimResult.history`` replays the descent
    tree = ast.parse((PACKAGE / module).read_text())
    assert keyword_uses(tree, "keep_trace") == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("f(keep_trace=False)\n", [1]),
        ("x = 1\ng(a, b=2, keep_trace=True)\n", [2]),
        ("def f(keep_trace=True): pass\n", []),
        ("f(keep=False)\n", []),
    ],
)
def test_keyword_check_flags_what_it_should(source, lines):
    assert keyword_uses(ast.parse(source), "keep_trace") == lines


# --- a loaded model carries its closure ---------------------------------------------------


@pytest.mark.parametrize(
    "func", [greatest_bisimulation, build_problem, fts_to_lats, convert_model], ids=lambda f: f.__name__
)
def test_close_is_read_off_the_model(func):
    # ``load_model(path, close=True)`` decides it once; ``Fts.close`` carries it
    assert "close" not in inspect.signature(func).parameters


def test_no_caller_passes_close_along():
    assert "_load_lats" not in definitions(ast.parse((PACKAGE / "cli.py").read_text()))
    assert keyword_uses(ast.parse((PACKAGE / "engine.py").read_text()), "close") == []


def test_the_game_keeps_no_copy_of_the_result():
    # moves come from the problem's lists, indices and membership from the
    # result, which every game function takes; no class wraps it
    tree = ast.parse((PACKAGE / "game.py").read_text())
    assert attribute_uses(tree, {"history", "matrix", "_ix", "_iy", "_moves"}) == []
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    assert [(c.name, [ast.unparse(base) for base in c.bases]) for c in classes] == [
        ("GameInstance", ["Record"]), ("Move", ["Record"]), ("PlayResult", ["Record"]),
    ]


@pytest.mark.parametrize(
    "source, uses",
    [
        ("result.history\n", [("history", 1)]),
        ("x = 1\nself.history = {}\n", [("history", 2)]),
        ("f(r.problem.history[k])\n", [("history", 1)]),
        ("history = result.separation(x, y, c)\n", []),
        ("r.histories\n", []),
    ],
)
def test_attribute_check_flags_what_it_should(source, uses):
    assert attribute_uses(ast.parse(source), {"history"}) == uses


# --- a check loads no generated code ---------------------------------------------------

# what a library check on either backend, or ``ctsbisim check``, imports
CHECK_MODULES = [
    "__init__.py", "bdd.py", "cli.py", "engine.py", "errors.py",
    "features.py", "modelio.py", "models.py", "poset.py",
]


def dataclass_uses(tree: ast.Module) -> list[str]:
    """Names of the classes decorated with ``dataclass``, with or without
    arguments, by name or as ``dataclasses.dataclass``."""
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name == "dataclass":
                    used.append(node.name)
    return used


def test_a_check_loads_no_dataclass():
    # each dataclass generates and compiles its methods when its module loads,
    # and ``dataclasses`` imports ``inspect``; records (``features.Record``) do
    # neither.  Every module is scanned, not only the ``CHECK_MODULES``.
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert [(m, name) for m, tree in trees.items() for name in dataclass_uses(tree)] == []
    assert [m for m, tree in trees.items() if "dataclasses" in imported_modules(tree)] == []


# Physical lines of the modules a library check loads (``CHECK_MODULES`` but
# ``cli.py``).  Without ``__pycache__`` every process compiles all of them, so
# each line costs the benchmark's ``setup_s``; raising this is a deliberate edit.
CHECK_PATH_LINES = 2176


def test_the_check_path_stays_within_its_line_budget():
    lines = sum(len((PACKAGE / m).read_text().splitlines()) for m in CHECK_MODULES if m != "cli.py")
    assert lines <= CHECK_PATH_LINES


@pytest.mark.parametrize(
    "source, used",
    [
        ("@dataclass\nclass A: pass\n", ["A"]),
        ("@dataclass(frozen=True)\nclass A: pass\n", ["A"]),
        ("@dataclasses.dataclass(slots=True)\nclass A: pass\n", ["A"]),
        ("class A:\n    @dataclass\n    class B: pass\n", ["B"]),
        ("@total_ordering\nclass A: pass\nx = dataclass\n", []),
    ],
)
def test_dataclass_check_flags_what_it_should(source, used):
    assert dataclass_uses(ast.parse(source)) == used


@pytest.mark.parametrize(
    "source, modules",
    [
        ("import dataclasses\n", {"dataclasses"}),
        ("from dataclasses import dataclass\n", {"dataclasses"}),
        ("import os.path as p\n", {"os"}),
        ("from . import dataclasses\nfrom .models import x\n", set()),
    ],
)
def test_import_check_flags_what_it_should(source, modules):
    assert imported_modules(ast.parse(source)) == modules


# --- the public API and the oracles' reach into the engine -----------------------------

PUBLIC_API = [
    "BddManager", "BisimResult", "ConditionPoset", "ConditionalRelation",
    "Cts", "CtsBisimError", "FeatureUniverse", "Fts", "GameInstance", "Lats",
    "Move", "bdd", "boolean_vs_lattice",
    "brute_force_oracle", "convert_model", "cts_to_lats", "engine",
    "errors", "features", "fitting_check", "fts_to_lats", "game", "gen_benchmark",
    "gen_benchmark_fts", "greatest_bisimulation", "interactive_play", "is_bisimulation",
    "lats_to_cts", "load_model", "model_to_dict", "modelio", "models", "parse_expr",
    "player1_move", "player2_reply", "poset", "self_play", "upgrade_leq",
]


def test_public_api_is_pinned():
    # adding or removing a public name is a deliberate edit of this list
    assert sorted(ctsbisim.__all__) == PUBLIC_API


def test_oracles_use_only_the_engine_lattice_ops():
    # the reference code builds its own matrix algebra; from the engine it
    # takes the explicit lattice ops and the transpose, nothing else
    tree = ast.parse((REPO / "tests" / "oracles.py").read_text())
    engine_names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ctsbisim.engine":
            engine_names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "ctsbisim":
            assert "engine" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert "ctsbisim.engine" not in {alias.name for alias in node.names}
    assert sorted(engine_names) == ["ExplicitOps", "transpose"]


# --- the kernel and its referee -----------------------------------------------------------

MOVED_TO_REFEREE = {
    "_classical_gfp", "_explicit_check", "boolean_vs_lattice", "brute_force_oracle",
    "fitting_check", "is_bisimulation", "mats_leq",
}
KERNEL = {
    "_transfer", "_descend", "apply_G_ops", "apply_F_boolean_ops", "ExplicitOps", "BddOps", "BddManager",
}


def function_reads(tree: ast.Module, name: str) -> set[str]:
    """Every name the top-level function ``name`` reads as a ``Name`` or an ``Attribute``."""
    func = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)
    return referenced_names(func)


def test_the_engine_defines_no_referee_name():
    # a check loads and compiles ``engine``; the definitions load with ``referee``
    assert definitions(ast.parse((PACKAGE / "engine.py").read_text())) & MOVED_TO_REFEREE == set()
    assert MOVED_TO_REFEREE <= definitions(ast.parse((PACKAGE / "referee.py").read_text()))
    assert set(ctsbisim.engine._REFEREE) == MOVED_TO_REFEREE  # the names the engine resolves


@pytest.mark.parametrize("name", ["brute_force_oracle", "_classical_gfp"])
def test_the_oracle_reads_no_kernel(name):
    # the per-condition definition referees the kernel, so it runs none of it
    tree = ast.parse((PACKAGE / "referee.py").read_text())
    assert function_reads(tree, name) & KERNEL == set()


@pytest.mark.parametrize(
    "source, reads",
    [
        ("def f(p):\n    return _descend(p, apply_G_ops)\n", {"_descend", "apply_G_ops"}),
        ("def f(p):\n    return p.ops.residuum\n", set()),
        ("def f(m):\n    return engine.BddManager(m)\n", {"BddManager"}),
        ("def f(p):\n    return g(p)\ndef g(p):\n    return _transfer(p)\n", set()),
    ],
)
def test_kernel_check_flags_what_it_should(source, reads):
    assert function_reads(ast.parse(source), "f") & KERNEL == reads


# --- the lattice-ops protocol -----------------------------------------------------------


def public_attributes(obj) -> set[str]:
    return {name for name in dir(obj) if not name.startswith("_")}


def test_lattice_ops_are_the_six_operations():
    # both backends run the one transfer kernel through exactly these
    six = {"meet", "join", "residuum", "leq", "top", "bottom"}
    poset = ConditionPoset(["a", "b"], [("a", "b")])
    manager = BddManager(FeatureUniverse(("f",), frozenset({"f"})))
    assert public_attributes(ExplicitOps(poset)) == six
    assert public_attributes(BddOps(manager, 1)) == six
