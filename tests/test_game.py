"""Tests for the descent game: winner, optimal move, and the census."""

import itertools
import math

import pytest

from treegamekit import game
from treegamekit.game import (
    Winner,
    census_second_player_wins,
    mover_loses,
    optimal_move,
    winner,
)
from treegamekit.poly import game_polynomial
from treegamekit.tree import parse_plane_tree, plane_trees, rooted_trees


class TestMoverLoses:
    def test_leaf_loses(self):
        assert mover_loses(())

    def test_single_edge_wins(self):
        assert not mover_loses(((),))

    def test_path_parity(self):
        t = ()
        for edges in range(1, 8):
            t = (t,)
            assert mover_loses(t) == (edges % 2 == 0)

    def test_star_always_wins(self):
        for k in range(1, 5):
            assert not mover_loses(((),) * k)

    def test_recursion_against_definition(self):
        # the mover wins by handing the opponent any losing subtree
        for t in plane_trees(8):
            assert mover_loses(t) == (not any(mover_loses(c) for c in t))


class TestWinner:
    def test_values(self):
        assert winner(()).value == "player2"
        assert winner(((),)).value == "player1"

    def test_worked_example(self):
        t = parse_plane_tree("(() (() ()))")
        assert winner(t) is Winner.FIRST

    def test_sign_of_game_polynomial(self):
        for t in plane_trees(8):
            sign = game_polynomial(t)(-1)
            assert sign in (0, 1)
            assert (sign == 1) == (winner(t) is Winner.SECOND)


class TestOptimalMove:
    def test_no_move_at_leaf(self):
        assert optimal_move(()) is None

    def test_no_winning_move_when_lost(self):
        t = (((),),)
        assert mover_loses(t)
        assert optimal_move(t) is None

    def test_worked_example_picks_first_child(self):
        t = parse_plane_tree("(() (() ()))")
        assert optimal_move(t) == 1

    def test_picks_least_winning_child(self):
        t = parse_plane_tree("((()) () ((())))")
        assert optimal_move(t) == 2

    def test_returned_child_is_a_loss_for_opponent(self):
        for t in plane_trees(7):
            k = optimal_move(t)
            if k is None:
                assert mover_loses(t)
            else:
                assert not mover_loses(t)
                assert mover_loses(t[k - 1])
                assert all(not mover_loses(c) for c in t[: k - 1])


class TestCensus:
    def test_small_values(self):
        assert [census_second_player_wins(n) for n in range(1, 8)] == [
            1,
            0,
            1,
            1,
            8,
            26,
            194,
        ]

    def test_matches_parent_vector_sweep(self):
        for n in range(1, 10):
            assert census_second_player_wins(n) == _sweep_census(n), n

    def test_weights_cover_every_tree(self):
        for n in range(1, 21):
            assert sum(game._census_weights(n).values()) == math.factorial(n - 1), n

    def test_lost_trees_raise(self, monkeypatch):
        monkeypatch.setattr(game, "_census_weights", lambda n: {0: 1})
        with pytest.raises(ArithmeticError):
            census_second_player_wins(3)

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            census_second_player_wins(21)
        assert census_second_player_wins(20) == 24314102888206464

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            census_second_player_wins(0)


def _sweep_census(n):
    """The oracle: play the game on each of the (n-1)! parent vectors, a
    vertex whose mover loses marking its parent winnable, bottom up."""
    count = 0
    for par in itertools.product(*(range(v) for v in range(1, n))):
        wins = [False] * n
        for v in range(n - 1, 0, -1):
            if not wins[v]:
                wins[par[v - 1]] = True
        count += not wins[0]
    return count


class TestCanonicalInvariance:
    def test_winner_ignores_sibling_order(self):
        for t in rooted_trees(7):
            variants = {winner(s) for s in plane_trees(7) if _same_multiset(s, t)}
            assert len(variants) <= 1


def _same_multiset(a, b):
    from treegamekit.tree import canonicalize

    return canonicalize(a) == canonicalize(b)
