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

Importing the package loads none of its modules.  A public name, or a
submodule read as an attribute, is imported on its first access (PEP 562)
and then bound here, so later reads are plain attribute reads.
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
        "SeparatorPlacement",
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
    submodule = f"{__name__}.{name}"
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif submodule in sys.modules:  # as is: a module set to load lazily stays so
        value = sys.modules[submodule]
    elif name.isidentifier() and importlib.util.find_spec(submodule) is not None:
        value = importlib.import_module(submodule)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
