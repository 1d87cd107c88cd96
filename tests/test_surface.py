"""The package's public names, pinned so that deleting code cannot drop
one, and resolved on first access; the modules each process loads; the
package's freedom from recursion, from unbounded caches and from module
state; and that it holds no code that nothing reaches."""

import argparse
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import treegamekit

PUBLIC = [
    "__version__",
    "Winner",
    "census_second_player_wins",
    "optimal_move",
    "winner",
    "PruningLattice",
    "placements_match_prunings",
    "rank_generating_function",
    "avoids",
    "enumerate_fixing_one",
    "first_inversions",
    "format_permutation",
    "inversions",
    "parse_permutation",
    "separator_placements",
    "weak_leq",
    "Poly",
    "event_frequency",
    "game_polynomial",
    "game_polynomial_from_prunings",
    "Fiber",
    "TamariElement",
    "fiber",
    "tamari_join",
    "tamari_leq",
    "tamari_meet",
    "verify_congruence",
    "canonicalize",
    "eastpush_labeling",
    "first_inversion_tree",
    "format_labeled_tree",
    "format_plane_tree",
    "parse_labeled_tree",
    "parse_plane_tree",
    "perm_from_increasing_tree",
    "plane_shape",
    "plane_trees",
    "rooted_trees",
    "tree_from_first_inversions",
    "westpop_labeling",
]


def test_all_is_pinned_and_resolves():
    assert treegamekit.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(treegamekit, name) is not None


def _fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports the package from the same place as this one."""
    env = dict(os.environ)
    src = str(Path(treegamekit.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_star_import_binds_all():
    out = _fresh("from treegamekit import *\nimport treegamekit\n"
                 "print(all(globals()[n] is getattr(treegamekit, n) for n in treegamekit.__all__))")
    assert out == "True\n"


def test_submodule_after_a_bare_import():
    out = _fresh("import treegamekit\nprint(treegamekit.poly.Poly((1, 1)))")
    assert out == "1 + q\n"


def test_resolved_name_is_bound():
    out = _fresh("import treegamekit\nassert 'winner' not in vars(treegamekit)\nwinner = treegamekit.winner\n"
                 "print(vars(treegamekit).get('winner') is winner is treegamekit.game.winner)")
    assert out == "True\n"


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="module 'treegamekit' has no attribute 'nonesuch'"):
        treegamekit.nonesuch
    assert not hasattr(treegamekit, "__nonesuch__")


def test_submodule_loads_on_first_attribute_access():
    out = _fresh("from treegamekit import geometry\n"
                 "print('point_count' in object.__getattribute__(geometry, '__dict__'), geometry.point_count.__module__)")
    assert out == "False treegamekit.geometry\n"


def test_one_loader():
    # the package's __getattr__ is the one place that sets a module to
    # load lazily; cli binds its modules with a plain ``from . import``
    package = Path(treegamekit.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py")) if "LazyLoader" in path.read_text()] == ["__init__.py"]
    imported = set()
    for node in ast.walk(ast.parse((package / "cli.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.partition(".")[0])
    assert "importlib" not in imported


# Modules a process must not load, by what it runs: an import of the
# package and its CLI, or a tgk command.
NOT_LOADED = {
    "": {"checks", "game", "geometry", "lattice", "poly", "seq", "tamari"},
    "seq --n 3": {"checks", "geometry", "lattice", "poly", "tamari"},
    "tamari-verify --n 3": {"checks", "game", "geometry", "lattice", "poly", "seq"},
    "phi --tree (())": {"checks", "lattice", "tamari"},
}
# Line 1: the package modules whose code has run (a module set to load
# lazily is in sys.modules before it runs, and its __dict__ is read without
# loading it).  Line 2: which of dataclasses and the modules it imports,
# inspect, ast and dis, are loaded.  Line 3: whether fractions is.
LOADED = """
import sys, treegamekit, treegamekit.cli
argv = sys.argv[1:]
if argv:
    import contextlib, io
    with contextlib.redirect_stdout(io.StringIO()):
        assert treegamekit.cli.main(argv) == 0
print(" ".join(sorted(name.rpartition(".")[2] for name, module in list(sys.modules.items())
                      if name.startswith("treegamekit.")
                      and "__builtins__" in object.__getattribute__(module, "__dict__"))))
print(*(name for name in ("dataclasses", "inspect", "ast", "dis") if name in sys.modules))
print("fractions" in sys.modules)
"""


@pytest.mark.parametrize("argv", sorted(NOT_LOADED), ids=lambda argv: argv or "import")
def test_each_process_loads_only_what_it_runs(argv):
    loaded = set(_fresh(LOADED, *argv.split()).splitlines()[0].split())
    assert {"cli", "perm", "report", "tree"} <= loaded
    assert loaded.isdisjoint(NOT_LOADED[argv]), loaded & NOT_LOADED[argv]


@pytest.mark.parametrize("argv", ["", "tamari-verify --n 3"], ids=lambda argv: argv or "import")
def test_no_process_loads_fractions_unless_it_reads_a_rational(argv):
    # cli imports Fraction only to read --eval and --q; the modules that
    # compute with rationals load it for themselves
    assert _fresh(LOADED, *argv.split()).splitlines()[2] == "False"


def test_method_choices_are_the_sequence_methods():
    # the parser names the methods itself, in seq's order, so it loads no seq
    from treegamekit import cli, seq

    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in commands.choices["seq"]._actions if a.dest == "method")
    assert method.choices == tuple(seq.METHODS)


@pytest.mark.parametrize("argv", ["", "phi --tree (())", "tamari-verify --n 3", "verify --n 3"],
                         ids=lambda argv: argv or "import")
def test_no_process_loads_dataclasses(argv):
    # the package's records are NamedTuples: typing, which every process
    # loads anyway, builds them without inspect, ast or dis
    assert _fresh(LOADED, *argv.split()).splitlines()[1] == ""


# Functions allowed to call themselves, each with the reason.
RECURSION_ALLOWED: dict[str, str] = {}


def test_no_function_calls_itself():
    # a call by a function's own name, bare or as an attribute, in its
    # body or a nested function's; nested functions are checked as well
    package = Path(treegamekit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                    if name == fn.name and fn.name not in RECURSION_ALLOWED:
                        found.append(f"{path.name}:{node.lineno} {fn.name}")
    assert found == []


# Functions allowed a cache that keeps every argument it was called with,
# each with the reason; such a cache grows for the life of the process.
UNBOUNDED_CACHE_ALLOWED: dict[str, str] = {}


def _is_unbounded_cache(expr):
    """``cache`` or ``functools.cache``, or ``lru_cache`` called with a
    maxsize of None, by position or keyword."""
    if isinstance(expr, ast.Call):
        if _callee_name(expr.func) != "lru_cache":
            return False
        size = expr.args[0] if expr.args else next((kw.value for kw in expr.keywords if kw.arg == "maxsize"), None)
        return isinstance(size, ast.Constant) and size.value is None
    return _callee_name(expr) == "cache"


def _callee_name(expr):
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def _unbounded_caches(module):
    """(wrapped function's name, line) for each unbounded cache in
    ``module``, used as a decorator or called on a function."""
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if _is_unbounded_cache(decorator):
                    yield node.name, decorator.lineno
        elif isinstance(node, ast.Call) and node.args and _is_unbounded_cache(node.func):
            yield _callee_name(node.args[0]), node.lineno


def test_unbounded_cache_detector():
    source = """
import functools
from functools import cache, lru_cache

@functools.lru_cache(maxsize=None)
def a(n): pass

@lru_cache(None)
def b(n): pass

@cache
def c(n): pass

d = functools.cache(len)
e = lru_cache(maxsize=None)(abs)

@lru_cache
def bounded(n): pass

@functools.lru_cache(maxsize=64)
def also_bounded(n): pass
"""
    assert sorted(_unbounded_caches(ast.parse(source))) == [
        ("a", 5), ("abs", 15), ("b", 8), ("c", 11), ("len", 14),
    ]


def test_no_unbounded_cache():
    package = Path(treegamekit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for name, line in _unbounded_caches(ast.parse(path.read_text(), str(path))):
            if name not in UNBOUNDED_CACHE_ALLOWED:
                found.append(f"{path.name}:{line} {name}")
    assert found == []


# Names a function may rebind with a ``global`` statement, each with the
# reason; such state makes a result, or its cost, depend on call history.
GLOBAL_ALLOWED: dict[str, str] = {}


def test_no_global_statement():
    package = Path(treegamekit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global):
                found += [f"{path.name}:{node.lineno} {name}" for name in node.names if name not in GLOBAL_ALLOWED]
    assert found == []


# Module-level functions and classes that nothing in the package uses and
# that are not exported, and methods that nothing in the package calls,
# each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "fiber_size": "the hook-length count of a fiber, library API beside fiber",
    "is_increasing": "the predicate perm_from_increasing_tree checks, library API",
    "__getattr__": "called by the interpreter (PEP 562)",
    "PruningLattice.covers_above": "called by perfbench/harness.py make_api",
    "_Parser.error": "called by argparse on a command line it cannot read",
}


def _names(tree, bare=True):
    """Every name used in ``tree`` as an attribute, and bare unless
    ``bare`` is false."""
    for node in ast.walk(tree):
        if bare and isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unreached(modules):
    """Definitions in ``modules`` that nothing outside their own body
    names: a module-level def or class by any use of its name, bare or as
    an attribute, unless it is in __all__; a method other than a dunder
    only by an attribute use (``x.name``), so that a local variable of
    the same name does not count."""
    uses = {bare: Counter(name for module in modules for name in _names(module, bare)) for bare in (True, False)}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def reached(defn, bare):
        return uses[bare][defn.name] > Counter(_names(defn, bare))[defn.name]

    for module in modules:
        for defn in module.body:
            if not isinstance(defn, (*functions, ast.ClassDef)):
                continue
            if not reached(defn, True) and defn.name not in treegamekit.__all__:
                yield defn.name
            if not isinstance(defn, ast.ClassDef):
                continue
            for method in defn.body:
                if isinstance(method, functions) and not method.name.startswith("__") and not reached(method, False):
                    yield f"{defn.name}.{method.name}"


def test_unreached_detector():
    source = """
class Placement:
    @property
    def sign(self):
        return 1

    def used(self):
        return -1


def caller(p):
    sign = p.used()
    return sign


def orphan():
    pass


caller(Placement())
"""
    assert list(_unreached([ast.parse(source)])) == ["Placement.sign", "orphan"]


def test_every_definition_is_reached():
    # code that only tests reach belongs in the tests
    package = Path(treegamekit.__file__).parent
    modules = [ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))]
    assert [name for name in _unreached(modules) if name not in UNREFERENCED_ALLOWED] == []


# Attributes stored on ``self`` that nothing in the package reads, each
# with the reason it stays.
UNREAD_ALLOWED: dict[str, str] = {}


def _unread_attributes(modules):
    """Attribute names stored on ``self`` in ``modules`` that no code
    there reads as ``x.name``, sorted; an augmented assignment reads its
    target."""
    stored, read = set(), set()
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    stored.add(node.attr)
    return sorted(stored - read)


def test_unread_attribute_detector():
    source = """
class Box:
    def __init__(self, items):
        self.items = items
        self.unused = len(items)
        self.count, self.spare = 0, None
        self._seen = set()

    def add(self, x):
        self.count += 1
        self._seen.add(x)
        other.orphan = x
        return self.items
"""
    assert _unread_attributes([ast.parse(source)]) == ["spare", "unused"]


def test_every_attribute_is_read():
    package = Path(treegamekit.__file__).parent
    modules = [ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))]
    assert [name for name in _unread_attributes(modules) if name not in UNREAD_ALLOWED] == []


def _caps_outside_the_table(module):
    """Lines where ``cfg.n`` meets an integer literal, in a comparison or
    in a ``min`` or ``max`` call; a check's cap belongs in ``checks.ROUTES``."""

    def is_size(expr):
        return isinstance(expr, ast.Attribute) and expr.attr == "n" and _callee_name(expr.value) == "cfg"

    def is_int(expr):
        return isinstance(expr, ast.Constant) and type(expr.value) is int

    for node in ast.walk(module):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and _callee_name(node.func) in ("min", "max"):
            operands = node.args
        else:
            continue
        if any(map(is_size, operands)) and any(map(is_int, operands)):
            yield node.lineno


def test_cap_detector():
    source = """
a = min(cfg.n, 8)
b = max(3, cfg.n)
if cfg.n > 9: pass
c = 6 if 6 <= cfg.n else cfg.n
d = min(cfg.n, row.cap)
e = min(cfg.n, cfg.census_limit)
f = cfg.n + 1
g = min(other.n, 8)
"""
    assert sorted(_caps_outside_the_table(ast.parse(source))) == [2, 3, 4, 5]


def test_check_caps_live_in_the_table():
    path = Path(treegamekit.__file__).parent / "checks.py"
    assert list(_caps_outside_the_table(ast.parse(path.read_text(), str(path)))) == []
