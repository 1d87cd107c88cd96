"""The package's public names, pinned so that deleting code cannot drop
one, and the package's freedom from recursion."""

import ast
from pathlib import Path

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
    "SeparatorPlacement",
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


# Functions allowed to call themselves, each with the reason.
RECURSION_ALLOWED = {
    "_forests": "recurses on the vertex count n, not on tree depth",
}


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
