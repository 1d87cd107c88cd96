"""treegamekit: plane trees, pruning lattices, tree games, and the weak
order quotient onto the Tamari lattice, with one integer sequence tying
them together.

The headline objects: a bijection sending permutations fixing 1 to
increasing trees via first inversions (``tree``); stack labelings that
cut out the 213- and 312-avoiding representatives (``tree``); the
distributive lattice of prunings of a plane tree (``lattice``); the
game polynomial counting those prunings by rank, which also settles a
leaf-removal game (``poly``, ``game``); the Tamari lattice realized on
first-inversion tables (``tamari``); cell-level geometry whose point
counts are game-polynomial values (``geometry``); and five independent
computations of the census sequence 1, 0, 1, 1, 8, 26, ... (``seq``).

Importing the package loads none of its modules.  A public name is
imported on its first access (PEP 562) and then bound here, so later reads
are plain attribute reads.  A submodule read as an attribute, or named in
a ``from . import``, is bound here set to load on its own first attribute
access (``importlib.util.LazyLoader``); this is how the package's modules
import one another, so a process loads only the modules it runs.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# Each public name under the module that defines it.
_EXPORTS = {
    "game": ("Winner", "census_second_player_wins", "optimal_move", "winner"),
    "lattice": ("PruningLattice", "placements_match_prunings", "rank_generating_function"),
    "perm": (
        "avoids",
        "enumerate_fixing_one",
        "first_inversions",
        "format_permutation",
        "inversions",
        "parse_permutation",
        "separator_placements",
        "weak_leq",
    ),
    "poly": ("Poly", "event_frequency", "game_polynomial", "game_polynomial_from_prunings"),
    "tamari": ("Fiber", "TamariElement", "fiber", "tamari_join", "tamari_leq", "tamari_meet", "verify_congruence"),
    "tree": (
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
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        fullname = f"{__name__}.{name}"
        value = sys.modules.get(fullname)
        if value is None:
            spec = importlib.util.find_spec(fullname) if name.isidentifier() else None
            if spec is None:
                raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
            spec.loader = importlib.util.LazyLoader(spec.loader)
            value = importlib.util.module_from_spec(spec)
            sys.modules[fullname] = value
            spec.loader.exec_module(value)
    globals()[name] = value
    return value
