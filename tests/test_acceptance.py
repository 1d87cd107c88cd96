"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success and carries its own
runtime budget; run with ``pytest -v`` to see one line per criterion.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from treegamekit.game import Winner, winner
from treegamekit.geometry import euler_characteristic_real, point_count
from treegamekit.lattice import (
    PruningLattice,
    placements_match_prunings,
    rank_generating_function,
)
from treegamekit.perm import (
    avoids,
    enumerate_fixing_one,
    first_inversions,
    separator_placements,
    signed_placement_total,
    weak_leq,
)
from treegamekit.poly import (
    Poly,
    event_frequency,
    game_polynomial,
    game_polynomial_from_prunings,
)
from treegamekit.seq import census_by_stirling_sum, census_table
from treegamekit.tamari import (
    ENUMERATION_LIMIT,
    TamariElement,
    tamari_join,
    tamari_leq,
    tamari_meet,
    verify_congruence,
)
from treegamekit.tree import (
    eastpush_labeling,
    first_inversion_tree,
    parse_plane_tree,
    perm_from_increasing_tree,
    plane_shape,
    plane_trees,
    random_plane_tree,
    rooted_trees,
    westpop_labeling,
)

KNOWN = [1, 0, 1, 1, 8, 26, 194, 1142, 9736, 81384]


def report(name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s)")


def test_acceptance_sequence_methods_agree():
    started = time.perf_counter()
    table = census_table(10)
    for method, values in table.items():
        assert values == KNOWN, method
    assert table["stirling"][2] == 1
    assert table["stirling"][4] == 8
    report("sequence-methods", started, 30)


def test_acceptance_polynomial_identities():
    started = time.perf_counter()
    assert rank_generating_function(((), ())) == Poly((1, 2, 1))
    assert rank_generating_function((((),),)) == Poly((1, 1, 1))

    t1 = parse_plane_tree("(() (() ((()))))")
    t2 = parse_plane_tree("((()) ((() ())))")
    expected = Poly((1, 2, 3, 4, 4, 3, 1))
    assert game_polynomial(t1) == expected
    assert game_polynomial(t2) == expected

    t3 = parse_plane_tree("((((() ()))) ((() () ())))")
    p3 = game_polynomial(t3)
    assert p3 == game_polynomial_from_prunings(t3)
    coeffs = list(p3.coeffs)
    assert coeffs == [1, 2, 3, 6, 10, 11, 10, 11, 10, 5, 1]
    assert coeffs[5] > coeffs[6] < coeffs[7]
    report("polynomial-identities", started, 10)


def test_acceptance_two_routes_agree_at_scale():
    started = time.perf_counter()
    for n in range(1, 11):
        for t in rooted_trees(n):
            assert game_polynomial_from_prunings(t) == game_polynomial(t)
    for i in range(1000):
        size = 1 + i % 16
        t = random_plane_tree(size, random.Random(3000 + i))
        assert game_polynomial_from_prunings(t) == game_polynomial(t)
    report("two-route-polynomials", started, 60)


def test_acceptance_bijections():
    started = time.perf_counter()
    for n in range(1, 9):
        perms = list(enumerate_fixing_one(n))
        for p in perms:
            assert perm_from_increasing_tree(first_inversion_tree(p)) == p
        tops = {}
        bottoms = {}
        for t in plane_trees(n):
            tops[perm_from_increasing_tree(eastpush_labeling(t))] = t
            bottoms[perm_from_increasing_tree(westpop_labeling(t))] = t
        avoiders_213 = {p for p in perms if avoids(p, 213)}
        avoiders_312 = {p for p in perms if avoids(p, 312)}
        assert set(tops) == avoiders_213
        assert set(bottoms) == avoiders_312
        assert len(tops) == len(bottoms) == math.comb(2 * n - 2, n - 1) // n  # Catalan(n - 1)
        for p, t in tops.items():
            assert plane_shape(first_inversion_tree(p)) == t
        for p, t in bottoms.items():
            assert plane_shape(first_inversion_tree(p)) == t

    worked = parse_plane_tree("((()) () (()()))")
    assert perm_from_increasing_tree(eastpush_labeling(worked)) == (
        1, 7, 2, 3, 5, 6, 4,
    )
    assert perm_from_increasing_tree(westpop_labeling(worked)) == (
        1, 3, 2, 4, 6, 7, 5,
    )
    report("bijections", started, 20)


def test_acceptance_congruence_and_quotient():
    started = time.perf_counter()
    for n in range(1, ENUMERATION_LIMIT + 1):
        assert all(c.passed for c in verify_congruence(n)), n

    # join and meet against the order rebuilt from the definition
    for n in range(1, 7):
        classes = sorted({first_inversions(p) for p in enumerate_fixing_one(n)})
        members = {c: [] for c in classes}
        for p in enumerate_fixing_one(n):
            members[first_inversions(p)].append(p)
        k = len(classes)
        leq = [[False] * k for _ in range(k)]
        for x in range(k):
            for y in range(k):
                leq[x][y] = x == y or any(
                    weak_leq(p, q)
                    for p in members[classes[x]]
                    for q in members[classes[y]]
                )
        for mid in range(k):
            for x in range(k):
                if leq[x][mid]:
                    for y in range(k):
                        if leq[mid][y]:
                            leq[x][y] = True
        elements = [TamariElement.from_fif(c) for c in classes]
        for x in range(k):
            for y in range(k):
                assert tamari_leq(elements[x], elements[y]) == leq[x][y]
                j = tamari_join(elements[x], elements[y])
                m = tamari_meet(elements[x], elements[y])
                ji, mi = classes.index(j.fif), classes.index(m.fif)
                assert leq[x][ji] and leq[y][ji]
                assert all(
                    leq[ji][z]
                    for z in range(k)
                    if leq[x][z] and leq[y][z]
                )
                assert leq[mi][x] and leq[mi][y]
                assert all(
                    leq[z][mi]
                    for z in range(k)
                    if leq[z][x] and leq[z][y]
                )
        if n == 4:
            assert k == 5
            strict = lambda x, y: leq[x][y] and x != y
            covers = [
                (x, y)
                for x in range(k)
                for y in range(k)
                if strict(x, y)
                and not any(strict(x, z) and strict(z, y) for z in range(k))
            ]
            assert len(covers) == 5
    report("congruence-quotient", started, 60)


def test_acceptance_geometry_consistency():
    started = time.perf_counter()
    for i in range(10_000):
        size = 1 + i % 12
        t = random_plane_tree(size, random.Random(2000 + i))
        phi = game_polynomial(t)
        sign = phi(-1)
        assert sign in (0, 1)
        assert (sign == 1) == (winner(t) is Winner.SECOND)
        assert euler_characteristic_real(phi) == sign
        lat = PruningLattice(t)
        cells = len(lat)
        assert sign % 2 == cells % 2
        ranks = [lat.rank(m) for m in lat]
        for q in (2, 3, 5, 7):
            assert point_count(phi, q) == sum(q**r for r in ranks)
    report("geometry-consistency", started, 30)


def test_acceptance_monte_carlo():
    started = time.perf_counter()
    qs = (Fraction(-1, 4), Fraction(-1, 2), Fraction(-3, 4))
    worst = 0.0
    for i in range(20):
        size = 2 + i % 9
        t = random_plane_tree(size, random.Random(4000 + i))
        exact_poly = game_polynomial(t)
        for j, q in enumerate(qs):
            exact = float(exact_poly(q))
            got = event_frequency(t, q, trials=100_000, seed=1000 + 17 * i + j)
            worst = max(worst, abs(got - exact))
    assert worst < 0.015, worst
    report("monte-carlo", started, 60)


def test_acceptance_placements():
    started = time.perf_counter()
    for n in range(1, 8):
        assert signed_placement_total(n) == census_by_stirling_sum(n) == (
            KNOWN[n - 1]
        )
    for n in range(1, 7):
        for p in enumerate_fixing_one(n):
            assert placements_match_prunings(p)
            shape = plane_shape(first_inversion_tree(p))
            by_rank = {}
            for cuts in separator_placements(p):
                rank = len(cuts)
                by_rank[rank] = by_rank.get(rank, 0) + 1
            hist = PruningLattice(shape).rank_polynomial()
            assert Poly([by_rank.get(r, 0) for r in range(n)]) == hist
    assert placements_match_prunings((1, 6, 2, 3, 5, 7, 4))
    report("placements", started, 30)
