"""The package's public names, pinned so that deleting code cannot drop one."""

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
