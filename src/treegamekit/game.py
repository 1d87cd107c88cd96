"""The descent game on a rooted tree.

A shared token starts at the root and players alternately slide it to a
child of its current vertex; whoever cannot move (the token sits on a
leaf) loses.  The mover wins exactly when some root subtree is a loss
for its own mover, so a win-loss fold from the leaves up (the walker in
``tree``, at any depth) settles every position; a tree's move is memoized
by object identity, never by comparing trees.  The value of the game
polynomial at -1 (see ``poly``) reads off the same winner, and the census
over all increasing trees on n vertices recovers the sequence in ``seq``.
"""

from __future__ import annotations

import enum

from .tree import PlaneTree, _fold, parent_vectors

# Census cap unless a caller raises it: n = 10 already sweeps 9! trees.
CENSUS_LIMIT = 10


class Winner(enum.Enum):
    FIRST = "player1"
    SECOND = "player2"


_moves: dict[int, tuple[PlaneTree, int | None]] = {}  # id(t) -> (t, optimal move)


def _loses(node: PlaneTree, child_loses: list[bool]) -> bool:
    return not any(child_loses)


def optimal_move(t: PlaneTree) -> int | None:
    """The least 1-based root-child index whose subtree the opponent
    then loses, or None when the mover has no winning move."""
    hit = _moves.get(id(t))
    if hit is None:
        if len(_moves) >= 256:  # keep a long-lived process bounded
            _moves.clear()
        move = next((k for k, child in enumerate(t, start=1) if _fold(child, iter, _loses)), None)
        hit = _moves[id(t)] = (t, move)  # holding t keeps its id unique
    return hit[1]


def mover_loses(t: PlaneTree) -> bool:
    """True when the player to move loses ``t`` under optimal play."""
    return optimal_move(t) is None


def winner(t: PlaneTree) -> Winner:
    """
    >>> winner(()).value
    'player2'
    >>> winner(((),)).value
    'player1'
    """
    return Winner.SECOND if mover_loses(t) else Winner.FIRST


def census_second_player_wins(n: int, limit: int = CENSUS_LIMIT) -> int:
    """Count increasing trees on n vertices that the second player wins.

    Sweeps all (n-1)! parent choices directly, so the cost is factorial;
    raise ``limit`` knowingly (n = 11 already means 3.6e6 trees).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > limit:
        raise ValueError(f"census of {n} exceeds the limit {limit}; raise it explicitly to proceed")
    count = 0
    for par in parent_vectors(n):
        # one bottom-up sweep: a vertex whose mover loses marks its parent winnable
        w = [False] * n
        for v in range(n - 1, 0, -1):
            if not w[v]:
                w[par[v - 1]] = True
        if not w[0]:
            count += 1
    return count
