"""Tests for the cell complex reading of the pruning lattice."""

import warnings

import pytest

from treegamekit.game import Winner, winner
from treegamekit.geometry import (
    euler_characteristic_complex,
    euler_characteristic_real,
    is_prime_power,
    point_count,
    poincare_polynomial,
)
from treegamekit.lattice import PruningLattice
from treegamekit.poly import Poly, game_polynomial
from treegamekit.tree import parse_plane_tree, plane_trees

WORKED = parse_plane_tree("(() (() ()))")
WORKED_PHI = game_polynomial(WORKED)


class TestPrimePowers:
    def test_examples(self):
        yes = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 121, 128]
        no = [0, 1, 6, 10, 12, 14, 15, 18, 20, 21, 22, 24, 26, 100]
        assert all(is_prime_power(q) for q in yes)
        assert not any(is_prime_power(q) for q in no)

    def test_negative(self):
        assert not is_prime_power(-4)


class TestPointCounts:
    def test_worked_example(self):
        assert point_count(WORKED_PHI, 2) == WORKED_PHI(2) == 57

    def test_seven_vertex_tree_value(self):
        t1 = parse_plane_tree("(() (() ((()))))")
        assert point_count(game_polynomial(t1), 2) == 273

    def test_prime_power_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point_count(WORKED_PHI, 4)
            point_count(WORKED_PHI, 5)

    def test_non_prime_power_warns(self):
        with pytest.warns(UserWarning):
            point_count(WORKED_PHI, 6)

    def test_non_prime_power_strict_raises(self):
        with pytest.raises(ValueError):
            point_count(WORKED_PHI, 6, strict=True)

    def test_rejects_small_or_non_integer(self):
        with pytest.raises(ValueError):
            point_count(WORKED_PHI, 1)
        with pytest.raises(ValueError):
            point_count(WORKED_PHI, 2.5)


class TestCharacteristics:
    def test_real_is_zero_or_one(self):
        for t in plane_trees(7):
            assert euler_characteristic_real(game_polynomial(t)) in (0, 1)

    def test_real_matches_winner(self):
        for t in plane_trees(7):
            second_wins = winner(t) is Winner.SECOND
            assert (euler_characteristic_real(game_polynomial(t)) == 1) == second_wins

    def test_real_matches_cell_count_parity(self):
        for t in plane_trees(7):
            cells = len(PruningLattice(t))
            assert euler_characteristic_real(game_polynomial(t)) % 2 == cells % 2
            assert euler_characteristic_real(game_polynomial(t)) == game_polynomial(t)(-1)

    def test_complex_counts_cells(self):
        for t in plane_trees(7):
            assert euler_characteristic_complex(game_polynomial(t)) == len(PruningLattice(t))

    def test_examples(self):
        assert euler_characteristic_real(game_polynomial(())) == 1
        assert euler_characteristic_real(game_polynomial(((),))) == 0
        assert euler_characteristic_complex(WORKED_PHI) == 10


class TestPoincare:
    def test_even_degrees_only(self):
        for t in plane_trees(6):
            p = poincare_polynomial(game_polynomial(t))
            for d in range(p.degree + 1):
                if d % 2 == 1:
                    assert p.coefficient(d) == 0

    def test_worked_example(self):
        assert poincare_polynomial(game_polynomial(((),))) == Poly((1, 0, 1))

    def test_value_at_one_counts_cells(self):
        for t in plane_trees(6):
            assert poincare_polynomial(game_polynomial(t))(1) == len(PruningLattice(t))


class TestCellComplex:
    # the complex is the pruning lattice read as cells: one cell per
    # pruning mask, of dimension its rank, closure being mask containment

    def test_build_worked_example(self):
        lat = PruningLattice(WORKED)
        assert len(lat) == euler_characteristic_complex(WORKED_PHI) == 10
        assert lat.rank_histogram() == list(WORKED_PHI.coeffs)

    def test_closure_is_containment(self):
        lat = PruningLattice(WORKED)
        for a in lat:
            above, stack = {a}, [a]
            while stack:
                for b in lat.covers_above(stack.pop()):
                    if b not in above:
                        above.add(b)
                        stack.append(b)
            assert above == {b for b in lat if a & ~b == 0}

    def test_direct_point_count_matches_polynomial(self):
        for t in plane_trees(6):
            lat = PruningLattice(t)
            for q in (2, 3, 5):
                assert sum(q ** lat.rank(c) for c in lat) == point_count(game_polynomial(t), q)

    def test_direct_euler_matches_polynomial(self):
        for t in plane_trees(6):
            lat = PruningLattice(t)
            assert sum(-1 if lat.rank(c) % 2 else 1 for c in lat) == (
                euler_characteristic_real(game_polynomial(t))
            )

    def test_top_cell_dimension(self):
        lat = PruningLattice(WORKED)
        assert max(lat.rank(c) for c in lat) == lat.rank(lat.top) == 4
