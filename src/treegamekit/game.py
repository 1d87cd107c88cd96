"""The descent game on a rooted tree.

A shared token starts at the root and players alternately slide it to a
child of its current vertex; whoever cannot move (the token sits on a
leaf) loses.  The mover wins exactly when some root subtree is a loss
for its own mover, so a win-loss fold from the leaves up (the walker in
``tree``, at any depth) settles every position; a tree's move is memoized
by object identity, never by comparing trees.  The value of the game
polynomial at -1 (see ``poly``) reads off the same winner, and the census
of the increasing trees on n vertices, counted label by label, recovers
the sequence in ``seq``.
"""

from __future__ import annotations

import enum
import math

from .report import CENSUS_LIMIT
from .tree import PlaneTree, _fold


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


def _census_weights(n: int) -> dict[int, int]:
    """Labels n-1, ..., 1 take their parents in turn.  Children carry larger
    labels, so once every vertex above v has its parent, v's status is
    settled: its mover wins iff v has a child whose mover loses.  The state
    is the mask of the vertices up to v that already have such a child,
    weighted by the partial trees that reach it; v's parent gains its bit
    exactly when v's own bit is clear.  The result maps each mask over {0}
    to its number of increasing trees."""
    weights = {0: 1}
    for v in range(n - 1, 0, -1):
        bit = 1 << v
        step: dict[int, int] = {}
        for mask, count in weights.items():
            if mask & bit:  # v's mover wins, so no parent gains a losing child
                rest = mask ^ bit
                step[rest] = step.get(rest, 0) + v * count
            else:
                for p in range(v):
                    grown = mask | 1 << p
                    step[grown] = step.get(grown, 0) + count
        weights = step
    return weights


def census_second_player_wins(n: int, limit: int = CENSUS_LIMIT) -> int:
    """Count increasing trees on n vertices that the second player wins.

    A transfer count over labels from the top down, grouping partial trees
    only by what the game can see of them; the group sizes must add up to
    all (n-1)! trees.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > limit:
        raise ValueError(f"census of {n} exceeds the limit {limit}; raise it explicitly to proceed")
    weights = _census_weights(n)
    total = sum(weights.values())
    if total != math.factorial(n - 1):
        raise ArithmeticError(f"census of {n} counted {total} trees, not {n - 1}!")
    return weights.get(0, 0)
