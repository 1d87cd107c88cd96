"""Tests for the cell complex reading of the pruning lattice."""

import random
import time
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treegamekit import geometry
from treegamekit.game import Winner, winner
from treegamekit.geometry import (
    MR_BASES,
    MR_PROVEN_BELOW,
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

SMALL_PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
MERSENNE_89 = 2**89 - 1  # prime, and past MR_PROVEN_BELOW
MERSENNE_61 = 2**61 - 1  # prime, and below it


def trial_division_prime_power(q):
    """q is p^k for a prime p: divide out the least factor, which is prime."""
    if q < 2:
        return False
    for p in range(2, q + 1):
        if p * p > q:
            return True  # q itself is prime
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    return False


class TestPrimePowers:
    def test_agrees_with_trial_division(self):
        assert [q for q in range(0, 100_001) if is_prime_power(q) != trial_division_prime_power(q)] == []

    def test_powers_of_small_primes(self):
        for p in SMALL_PRIMES:
            for k in range(1, 60):
                assert is_prime_power(p**k) is True
                assert is_prime_power(p**k * (3 if p == 2 else 2)) is False
        # exact roots that are composite, with no factor the division step finds
        for p, r in zip(SMALL_PRIMES[13:], SMALL_PRIMES[14:]):
            for k in range(1, 12):
                assert is_prime_power((p * r) ** k) is False
                assert is_prime_power(p**k * r ** (k + 1)) is False

    def test_certified_past_trial_division_reach(self):
        # 10**18 + 3 is prime; trial division up to its root takes minutes
        assert is_prime_power(1_000_000_000_000_000_003) is True
        assert is_prime_power(MERSENNE_61**3) is True
        assert is_prime_power(MERSENNE_61 * 1_000_000_000_000_000_003) is False
        assert is_prime_power(3**5000) is True

    def test_uncertified_past_the_proven_bound(self):
        assert MERSENNE_89 > MR_PROVEN_BELOW > MERSENNE_61
        assert is_prime_power(MERSENNE_89) is None
        assert is_prime_power(MERSENNE_89**2) is None
        # a witness still proves a large root composite
        assert is_prime_power(MERSENNE_89 * MERSENNE_61) is False
        assert is_prime_power((MERSENNE_89 * MERSENNE_61) ** 3) is False

    def test_integer_roots_are_exact(self):
        rng = random.Random(0)
        for _ in range(300):
            k = rng.randrange(2, 40)
            r = rng.randrange(2, 10 ** rng.randrange(1, 60))
            for q in (r**k - 1, r**k, r**k + 1, rng.randrange(2, 10 ** rng.randrange(2, 400))):
                root = geometry._integer_root(q, k)
                assert root**k <= q < (root + 1) ** k, (q, k)

    def test_root_search_is_quick_on_a_large_q(self, monkeypatch):
        # 2,000 digits with no factor up to 41: every prime k up to
        # log2(q) / 5 is tried; the Miller-Rabin round is not timed
        q = 10**1999 + 1
        while any(q % b == 0 for b in MR_BASES):
            q += 2
        monkeypatch.setattr(geometry, "_passes_miller_rabin", lambda r, bases: False)
        start = time.perf_counter()
        assert is_prime_power(q) is False
        assert time.perf_counter() - start < 0.5

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

    def test_uncertified_warns_or_raises_naming_the_bound(self):
        with pytest.warns(UserWarning, match="could not be certified"):
            assert point_count(WORKED_PHI, MERSENNE_89) == WORKED_PHI(MERSENNE_89)
        with pytest.raises(ValueError, match=f"proven only below {MR_PROVEN_BELOW}"):
            point_count(WORKED_PHI, MERSENNE_89, strict=True)

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
            for d in range(len(p.coeffs)):
                if d % 2 == 1:
                    assert p.coeffs[d] == 0

    def test_worked_example(self):
        assert poincare_polynomial(game_polynomial(((),))) == Poly((1, 0, 1))

    def test_value_at_one_counts_cells(self):
        for t in plane_trees(6):
            assert poincare_polynomial(game_polynomial(t))(1) == len(PruningLattice(t))

    def test_q_squared(self):
        assert poincare_polynomial(Poly((1, 2, 3))) == Poly((1, 0, 2, 0, 3))
        assert poincare_polynomial(Poly()) == Poly()

    @given(st.lists(st.integers(-9, 9), max_size=6), st.integers(-5, 5))
    def test_q_squared_agrees_with_eval(self, a, x):
        assert poincare_polynomial(Poly(a))(x) == Poly(a)(x * x)


class TestCellComplex:
    # the complex is the pruning lattice read as cells: one cell per
    # pruning mask, of dimension its rank, closure being mask containment

    def test_build_worked_example(self):
        lat = PruningLattice(WORKED)
        assert len(lat) == euler_characteristic_complex(WORKED_PHI) == 10
        assert lat.rank_polynomial() == WORKED_PHI

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
        assert max(lat.rank(c) for c in lat) == lat.rank((1 << lat.size) - 1) == 4
