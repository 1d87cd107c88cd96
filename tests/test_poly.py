"""Tests for integer polynomials, the game polynomial, and its event model."""

import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegamekit import lattice, poly
from treegamekit.game import Winner, mover_loses, winner
from treegamekit.lattice import PruningLattice
from treegamekit.poly import (
    MATERIALIZE_LIMIT,
    ONE,
    Q,
    SCHOOLBOOK,
    ZERO,
    Poly,
    _times,
    event_frequency,
    event_tolerance,
    game_polynomial,
    game_polynomial_from_prunings,
    pruning_profiles,
)
from treegamekit.tree import _fold, parse_plane_tree, plane_trees, random_plane_tree, vertex_count

from test_lattice import small_and_random_trees

coeff_lists = st.lists(st.integers(-9, 9), max_size=6)


def product_oracle(t):
    """The game polynomial as one ``Poly`` product after another: the
    term-by-term signed product, factor by factor."""
    return _fold(t, iter, lambda node, phis: math.prod((Poly((1, *phi.coeffs)) for phi in phis), start=ONE))


def product_profiles(node, child_profiles):
    """A vertex's profiles as one sum per ``itertools.product`` combination
    of its children's options; fold it with ``_fold``."""
    if not child_profiles:
        return [(0, 0, True)]
    options = [((0, 1, False), *((r + 1, c, lost) for r, c, lost in ps)) for ps in child_profiles]
    out = []
    for combo in itertools.product(*options):
        rank = covers = 0
        loses = True
        for r, c, child_loses in combo:
            rank += r
            covers += c
            if child_loses:
                loses = False
        out.append((rank, covers, loses))
    return out


def horner_oracle(p, x):
    """Horner's rule in the arithmetic of ``x`` itself."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def path(n):
    t = ()
    for _ in range(n - 1):
        t = (t,)
    return t


def caterpillar(spine, legs, rng):
    """A path of ``spine`` vertices, each with up to ``legs`` leaves on either side."""
    t = ()
    for _ in range(spine):
        left, right = rng.randrange(legs + 1), rng.randrange(legs + 1)
        t = ((),) * left + (t,) + ((),) * right
    return t


class TestPolyArithmetic:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert Poly((0, 0)) == ZERO

    def test_degree(self):
        assert len(ZERO.coeffs) - 1 == -1
        assert len(ONE.coeffs) - 1 == 0
        assert len(Q.coeffs) - 1 == 1
        assert len(Poly((1, 0, 3)).coeffs) - 1 == 2

    def test_add_sub(self):
        assert Poly((1, 2)) + Poly((0, 1, 1)) == Poly((1, 3, 1))
        assert Poly((1, 2)) - Poly((1, 2)) == ZERO

    def test_mul(self):
        assert Poly((1, 1)) * Poly((1, 1)) == Poly((1, 2, 1))
        assert Poly((1, 1)) * ZERO == ZERO
        assert (ONE + Q) * (ONE - Q) == Poly((1, 0, -1))

    def test_eval(self):
        p = Poly((1, 2, 3))
        assert p(0) == 1
        assert p(1) == 6
        assert p(-1) == 2
        assert p(2) == 17
        assert p(Fraction(1, 2)) == Fraction(11, 4)

    def test_eval_at_rationals_matches_fraction_horner(self):
        # one integer pass and one Fraction at the end give the value, its
        # type and its text that a Fraction per coefficient gives
        rng = random.Random(5)
        points = [Fraction(-1, 2), Fraction(0), Fraction(3), Fraction(-4), Fraction(-7, 3), Fraction(5, 12)]
        polys = [ZERO, ONE, Poly((0, 0, 1)), Poly((-3,))]
        polys += [Poly(rng.randint(-10**6, 10**6) for _ in range(rng.randrange(1, 40))) for _ in range(60)]
        for p in polys:
            for x in points:
                got, want = p(x), horner_oracle(p, x)
                assert got == want and type(got) is type(want) and str(got) == str(want), (p, x)

    def test_eval_at_ints_and_floats_unchanged(self):
        p = Poly((1, -2, 3))
        assert type(p(3)) is int and p(3) == horner_oracle(p, 3)
        assert type(p(0.5)) is float and p(0.5) == horner_oracle(p, 0.5)

    def test_hash_consistency(self):
        assert hash(Poly((1, 2, 0))) == hash(Poly((1, 2)))
        assert len({Poly((1, 2)), Poly((1, 2, 0))}) == 1

    def test_immutable(self):
        p = Poly((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_ring_laws(self, a, b, c):
        pa, pb, pc = Poly(a), Poly(b), Poly(c)
        assert pa + pb == pb + pa
        assert pa * pb == pb * pa
        assert (pa + pb) * pc == pa * pc + pb * pc
        assert pa * (pb * pc) == (pa * pb) * pc

    @given(coeff_lists, st.integers(-5, 5))
    def test_eval_is_ring_map(self, a, x):
        pa = Poly(a)
        assert (pa * pa)(x) == pa(x) ** 2
        assert (pa + ONE)(x) == pa(x) + 1


class TestFormatting:
    def test_examples(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(Q) == "q"
        assert str(Poly((0, -1))) == "-q"
        assert str(Poly((-1, 2))) == "-1 + 2*q"
        assert str(Poly((1, 0, -3))) == "1 - 3*q^2"
        assert str(Poly((1, 2, 3, 4, 4, 3, 1))) == (
            "1 + 2*q + 3*q^2 + 4*q^3 + 4*q^4 + 3*q^5 + q^6"
        )

    def test_repr_round_trip(self):
        p = Poly((1, 0, -3))
        assert eval(repr(p)) == p


class TestGamePolynomial:
    def test_single_vertex(self):
        assert game_polynomial(()) == ONE

    def test_single_edge(self):
        assert game_polynomial(((),)) == Poly((1, 1))

    def test_path(self):
        # a path multiplies one factor of (1 + q * ..) per edge
        assert game_polynomial(((((),),),)) == Poly((1, 1, 1, 1))

    def test_star(self):
        assert game_polynomial(((), (), ())) == Poly((1, 3, 3, 1))

    def test_worked_example(self):
        t = parse_plane_tree("(() (() ()))")
        assert game_polynomial(t) == Poly((1, 2, 3, 3, 1))

    def test_two_trees_one_polynomial(self):
        t1 = parse_plane_tree("(() (() ((()))))")
        t2 = parse_plane_tree("((()) ((() ())))")
        expected = Poly((1, 2, 3, 4, 4, 3, 1))
        assert game_polynomial(t1) == expected
        assert game_polynomial(t2) == expected
        assert t1 != t2

    def test_shared_polynomial_values(self):
        t1 = parse_plane_tree("(() (() ((()))))")
        assert game_polynomial(t1)(2) == 273
        assert game_polynomial(t1)(1) == 18

    def test_nonunimodal_example(self):
        t3 = parse_plane_tree("((((() ()))) ((() () ())))")
        coeffs = [1, 2, 3, 6, 10, 11, 10, 11, 10, 5, 1]
        p = game_polynomial(t3)
        assert list(p.coeffs) == coeffs
        # the coefficients dip and rise again past the midpoint
        assert coeffs[5] > coeffs[6] < coeffs[7]

    def test_degree_counts_edges(self):
        for t in plane_trees(7):
            assert len(game_polynomial(t).coeffs) - 1 == vertex_count(t) - 1

    def test_constant_term_one(self):
        for t in plane_trees(6):
            assert game_polynomial(t).coeffs[0] == 1

    def test_linear_term_counts_root_children(self):
        for t in plane_trees(6):
            assert game_polynomial(t).coeffs[1] == len(t)

    def test_invariant_under_sibling_order(self):
        t_a = parse_plane_tree("((()) () (() ()))")
        t_b = parse_plane_tree("((() ()) (()) ())")
        assert game_polynomial(t_a) == game_polynomial(t_b)


class TestTimes:
    """``_times`` against the term-by-term product, on both sides of the
    crossover and where the packed width is tightest."""

    @staticmethod
    def check(a, b):
        a, b = tuple(a), tuple(b)
        assert _times(a, b) == (Poly(a) * Poly(b)).coeffs == _times(b, a)

    def test_both_sides_of_the_crossover(self):
        rng = random.Random(11)
        for short in (1, 2, SCHOOLBOOK - 1, SCHOOLBOOK, SCHOOLBOOK + 1, 2 * SCHOOLBOOK, 100):
            for long in (short, short + 1, 3 * short + 7, 500):
                for bits in (1, 7, 8, 9, 64, 300):
                    a = [rng.randrange(1 << bits) for _ in range(short - 1)] + [rng.randrange(1, 1 << bits)]
                    b = [rng.randrange(1 << bits) for _ in range(long - 1)] + [rng.randrange(1, 1 << bits)]
                    self.check(a, b)

    def test_byte_boundaries(self):
        # all-ones products peak at the shorter length; entries 2^k - 1
        # give products just under 2^(2k) times the length
        for n in (SCHOOLBOOK + 1, 127, 128, 129, 255, 256, 257, 300):
            self.check((1,) * n, (1,) * n)
            self.check((1,) * n, (1,) * (n + 1))
        for k in (7, 8, 9, 15, 16, 17, 31, 32, 33, 64):
            for n in (SCHOOLBOOK + 1, 20, 255, 256, 257):
                self.check((2**k - 1,) * n, (2**k - 1,) * n)
                self.check((2**k - 1,) * n, (1,) * n)

    def test_zeros_inside(self):
        self.check((1,) + (0,) * 40 + (1,), (1, 0, 0, 5) * 10 + (2,))

    def test_every_small_product_packed(self, monkeypatch):
        # with no schoolbook range every product goes through the packing
        monkeypatch.setattr(poly, "SCHOOLBOOK", 0)
        for la in range(1, 7):
            for lb in range(1, 7):
                for top in (1, 2, 255, 256):
                    self.check((top,) * la, range(1, lb + 1))
        assert game_polynomial(((), (((),), ()), ())) == product_oracle(((), (((),), ()), ()))

    def test_sizes_choose_the_method(self):
        # a short factor of small coefficients times a long one of large
        # coefficients: packing pads the short one to the large width
        rng = random.Random(5)
        short, long = SCHOOLBOOK + 1, 1643

        def factor(n, bits):
            return tuple(rng.randrange(1 << bits - 1, 1 << bits) for _ in range(n))

        small, wide = factor(short, 9), factor(long, 1071)
        self.check(small, wide)

    def test_balanced_reduction(self, monkeypatch):
        # a star's 64 leaves are one binomial row, with no product at all;
        # a root over 64 copies of (()) meets its factors 1 + q + q^2 in
        # pairs, level by level: every product multiplies two factors of
        # one length, 63 in all
        lengths = []

        def recording(a, b):
            lengths.append((len(a), len(b)))
            return _times(a, b)

        monkeypatch.setattr(poly, "_times", recording)
        assert game_polynomial(((),) * 64).coeffs == tuple(math.comb(64, j) for j in range(65))
        assert lengths == []
        assert game_polynomial((((),),) * 64) == product_oracle((((),),) * 64)
        assert len(lengths) == 63
        assert all(la == lb for la, lb in lengths), lengths


class TestLeaves:
    """A vertex's leaves contribute (1 + q)^k: the binomial row when they
    are its only children, one shift-add each beside other children."""

    @pytest.mark.parametrize("k", [0, 1, 2, SCHOOLBOOK, SCHOOLBOOK + 1, 64, 300])
    def test_leaves_beside_other_children(self, k):
        leaves = ((),) * k
        siblings = ((((),), ()), path(5), ((),) * 3)
        trees = [leaves]
        for others in (siblings[:1], siblings):
            trees += [leaves + others, others + leaves]
            # the leaves in runs before, between and after the others
            cuts = [i * k // (len(others) + 1) for i in range(len(others) + 2)]
            interleaved = leaves[: cuts[1]]
            for other, start, stop in zip(others, cuts[1:], cuts[2:]):
                interleaved += (other,) + leaves[start:stop]
            trees.append(interleaved)
        for t in trees:
            assert game_polynomial(t) == product_oracle(t)
            assert game_polynomial((t, ())) == product_oracle((t, ()))  # as a non-leaf child itself

    def test_binomial_rows(self):
        # Pascal's rule from each row to the next, with row 0 = (1,),
        # makes every row through 2,000 equal to math.comb's
        row = (1,)
        for k in range(2001):
            got = poly._product((), [(1,)] * k)
            assert got == row, k
            if k <= 100 or k == 2000:
                assert got == tuple(math.comb(k, j) for j in range(k + 1)), k
            row = tuple(a + b for a, b in zip(row + (0,), (0,) + row))

    def test_deep_caterpillar_does_not_recurse(self):
        # a spine twice the recursion limit deep, with up to two leaves on
        # either side of each spine vertex; at q = 1 the product counts
        # prunings, 1 + (the child's count) per child
        t = caterpillar(2 * sys.getrecursionlimit() + 1, 2, random.Random(8))
        phi = game_polynomial(t)
        assert len(phi.coeffs) == vertex_count(t)
        assert phi(1) == _fold(t, iter, lambda node, counts: math.prod(1 + c for c in counts))


class TestGamePolynomialAgainstOracle:
    """``game_polynomial`` equals one ``Poly`` product after another."""

    def test_every_small_plane_tree(self):
        for n in range(1, 10):
            for t in plane_trees(n):
                assert game_polynomial(t) == product_oracle(t)

    def test_stars_paths_and_caterpillars(self):
        rng = random.Random(3)
        for n in (2, 15, 16, 17, 33, 100, 257, 400):
            assert game_polynomial(((),) * (n - 1)) == product_oracle(((),) * (n - 1))
            assert game_polynomial(path(n)) == product_oracle(path(n))
        for spine, legs in ((5, 3), (20, 8), (40, 4), (25, 7)):
            t = caterpillar(spine, legs, rng)
            assert vertex_count(t) <= 400
            assert game_polynomial(t) == product_oracle(t)

    def test_random_trees(self):
        for n, seed in ((100, 0), (300, 1), (1000, 2), (1659, 3)):
            t = random_plane_tree(n, random.Random(seed))
            assert game_polynomial(t) == product_oracle(t)

    def test_long_path_does_not_recurse(self):
        assert game_polynomial(path(3000)) == Poly((1,) * 3000)


class TestPruningProfiles:
    def test_single_vertex(self):
        assert pruning_profiles(()) == {(0, 0, True): 1}

    def test_single_edge(self):
        # root alone: rank 0, one edge to restore, stuck mover loses;
        # whole edge: rank 1, nothing to restore, mover wins
        assert pruning_profiles(((),)) == {(0, 1, True): 1, (1, 0, False): 1}

    def test_profiles_match_lattice(self):
        # rank, cover count, and winner flag of every pruning, checked
        # against the materialized lattice one mask at a time
        for n in range(1, 9):
            for t in plane_trees(n):
                lat = PruningLattice(t)
                expected = Counter(
                    (
                        lat.rank(m),
                        len(lat.covers_above(m)),
                        mover_loses(lat.pruned_subtree(m)),
                    )
                    for m in lat
                )
                assert pruning_profiles(t) == expected

    def test_profiles_match_product_oracle(self):
        # the same multiset on every plane tree of up to 9 vertices and on
        # random trees of up to 19
        for t in small_and_random_trees():
            assert pruning_profiles(t) == Counter(_fold(t, iter, product_profiles))

    def test_largest_star_traces_a_few_kilobytes(self):
        # 2^19 prunings share 20 distinct triples; the first call warms
        # up what the interpreter allocates once
        star = ((),) * (MATERIALIZE_LIMIT - 1)
        pruning_profiles(star)
        tracemalloc.start()
        try:
            profiles = pruning_profiles(star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(profiles.values()) == 2 ** (MATERIALIZE_LIMIT - 1)
        assert peak < 64 << 10

    def test_size_cap(self):
        # a star with MATERIALIZE_LIMIT - 1 leaves has the most prunings
        # a materializable lattice has (tests/test_cli.py lists them);
        # one leaf more is refused, as a whole tree or as a subtree
        with pytest.raises(ValueError, match="prunings"):
            pruning_profiles(((),) * MATERIALIZE_LIMIT)
        with pytest.raises(ValueError, match="prunings"):
            pruning_profiles((((),) * MATERIALIZE_LIMIT,))
        assert lattice.MATERIALIZE_LIMIT == MATERIALIZE_LIMIT

    def test_size_cap_across_children(self):
        # each child alone passes the cap; the root over them does not,
        # and is refused once the first child is listed
        big = ((),) * (MATERIALIZE_LIMIT - 1)
        with pytest.raises(ValueError, match="prunings"):
            pruning_profiles((big, big))

    def test_size_cap_stops_listing_children(self):
        # a root with 100 two-vertex paths has 3^100 prunings; 3^12 is the
        # first power past 2^19
        with pytest.raises(ValueError, match="at least 531441 prunings"):
            pruning_profiles((((),),) * 100)
        # a root over 100 nineteen-leaf stars is refused after its first
        # child, 2^19 + 1 options, before any star's 2^19 profiles are
        # listed: the refusal traces less than one such list's pointers
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at least 524289 prunings"):
                pruning_profiles((((),) * 19,) * 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 19

    def test_refusal_names_the_first_subtree_over_the_cap(self):
        # the counting pass raises in postorder: the 20-leaf star is refused
        # before its parent, whose first two children already pass the cap
        star = ((),) * 10
        with pytest.raises(ValueError, match="at least 1048576 prunings"):
            pruning_profiles((star, star, ((),) * 20))

    def test_sum_route_matches_product_route(self):
        for n in range(1, 9):
            for t in plane_trees(n):
                assert game_polynomial_from_prunings(t) == game_polynomial(t)

    def test_sum_route_worked_example(self):
        t3 = parse_plane_tree("((((() ()))) ((() () ())))")
        assert game_polynomial_from_prunings(t3) == game_polynomial(t3)


class TestEventFrequency:
    def test_single_vertex_always_occurs(self):
        assert event_frequency((), Fraction(-1, 2), trials=10) == 1.0

    def test_zero_q_never_descends(self):
        t = parse_plane_tree("(() (() ()))")
        assert event_frequency(t, 0, trials=100) == 1.0

    def test_deterministic(self):
        t = parse_plane_tree("(() (() ()))")
        a = event_frequency(t, Fraction(-1, 2), trials=2000, seed=4)
        b = event_frequency(t, Fraction(-1, 2), trials=2000, seed=4)
        assert a == b

    def test_seed_matters(self):
        t = parse_plane_tree("(() (() ()))")
        a = event_frequency(t, Fraction(-1, 2), trials=2000, seed=1)
        b = event_frequency(t, Fraction(-1, 2), trials=2000, seed=2)
        assert a != b

    def test_matches_polynomial(self):
        t = parse_plane_tree("(() (() ()))")
        q = Fraction(-1, 2)
        exact = game_polynomial(t)(q)
        got = event_frequency(t, q, trials=60_000, seed=0)
        assert abs(got - exact) < 0.02

    def test_q_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError):
            event_frequency((), Fraction(1, 2))
        with pytest.raises(ValueError):
            event_frequency((), -2)
        with pytest.raises(ValueError):
            event_frequency((), Fraction(10**400))  # past the float range

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            event_frequency((), 0, trials=0)

    def test_extremes_are_exact(self):
        # at q = 0 no coin comes up heads, and at q = -1 every coin does,
        # so every trial plays the whole game: phi(-1) is 1 exactly when
        # the second player wins
        for n in range(1, 7):
            for t in plane_trees(n):
                assert event_frequency(t, 0, trials=50, seed=n) == 1.0
                want = 1.0 if winner(t) is Winner.SECOND else 0.0
                assert event_frequency(t, -1, trials=50, seed=n) == want

    @pytest.mark.parametrize(
        "text, q",
        [("(() (() ()))", Fraction(-1, 2)), ("((()) () (() ()))", Fraction(-1, 3)), ("(((())) () (()))", Fraction(-7, 10))],
    )
    def test_mean_over_seeds_is_unbiased(self, text, q):
        # the mean of 100 seeds' frequencies is one frequency over all
        # their trials, so it lies within Hoeffding's epsilon of phi(q)
        t = parse_plane_tree(text)
        trials, seeds = 1000, 100
        mean = sum(event_frequency(t, q, trials=trials, seed=s) for s in range(seeds)) / seeds
        assert abs(mean - float(game_polynomial(t)(q))) <= event_tolerance(trials * seeds)

    def test_blocks_bound_memory(self):
        # a mask over all 10^5 trials for each of 2,000 leaves would take
        # 2,000 x 10^5 bits = 25 MB; blocks of EVENT_BLOCK_BITS // 2,001
        # lanes keep the masks to 2^24 bits = 2 MiB
        star = ((),) * 2000
        tracemalloc.start()
        try:
            assert event_frequency(star, Fraction(-1, 2), trials=100_000) == 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * poly.EVENT_BLOCK_BITS // 8  # bytes
