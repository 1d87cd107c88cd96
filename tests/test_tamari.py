"""Tests for the quotient lattice: fibers, join, meet, and congruence."""

import itertools
import math
import random

import pytest

from treegamekit import checks, tamari
from treegamekit.perm import (
    avoids,
    enumerate_fixing_one,
    first_inversions,
    inversions,
    weak_leq,
)
from treegamekit.tamari import (
    ENUMERATION_LIMIT,
    Fiber,
    TamariElement,
    _covers_by_rank,
    fiber,
    fiber_size,
    tamari_join,
    tamari_leq,
    tamari_meet,
    verify_congruence,
)
from treegamekit.tree import (
    _children_table,
    eastpush_labeling,
    fif_from_tree,
    first_inversion_tree,
    parse_plane_tree,
    perm_from_increasing_tree,
    plane_shape,
    plane_trees,
    random_plane_tree,
    tree_from_first_inversions,
    tree_of_index,
    westpop_labeling,
)

WORKED_SHAPE = parse_plane_tree("((()) () (()()))")


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def forward_orbit(t, i):
    """i -> t(i) -> t(t(i)) .. up to the sentinel len(t) + 1, i left out."""
    out = []
    while i != len(t) + 1:
        i = t[i - 2]
        out.append(i)
    return out


def quotient_oracle(n):
    """The quotient order rebuilt from scratch: classes are tables, and
    a class sits below another when some pair of members compares in the
    weak order; the relation is then closed transitively."""
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
                row_mid = leq[mid]
                row_x = leq[x]
                for y in range(k):
                    if row_mid[y]:
                        row_x[y] = True
    return classes, leq


def oracle_bound(classes, leq, x, y, upper):
    """Unique least upper (or greatest lower) bound, when one exists."""
    k = len(classes)
    if upper:
        candidates = [z for z in range(k) if leq[x][z] and leq[y][z]]
        best = [z for z in candidates if all(leq[z][w] for w in candidates)]
    else:
        candidates = [z for z in range(k) if leq[z][x] and leq[z][y]]
        best = [z for z in candidates if all(leq[w][z] for w in candidates)]
    assert len(best) == 1
    return classes[best[0]]


def hook_product(t):
    """The product over non-root vertices of the vertex's subtree size
    plus its right siblings' subtree sizes, from nested tuples."""
    sizes = {}
    stack = [(t, False)]
    while stack:
        node, done = stack.pop()
        if done:
            sizes[id(node)] = 1 + sum(sizes[id(c)] for c in node)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node)
    product = 1
    stack = [t]
    while stack:
        node = stack.pop()
        tail = 0
        for c in reversed(node):
            tail += sizes[id(c)]
            product *= tail
        stack.extend(node)
    return product


def _inversion_mask(p, pair_index):
    mask = 0
    n = len(p)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if p[i - 1] > p[j - 1]:
                mask |= 1 << pair_index[i, j]
    return mask


def _up_covers(p):
    """The weak-order up-covers of ``p`` among permutations fixing 1: for
    each k in 2..n-1 standing left of k + 1, swap the two values."""
    where = {v: i for i, v in enumerate(p)}
    out = []
    for k in range(2, len(p)):
        i, j = where[k], where[k + 1]
        if i < j:
            q = list(p)
            q[i], q[j] = k + 1, k
            out.append(tuple(q))
    return out


def _verify_congruence_pairwise(n):
    """The congruence check by brute force over all pairs: every fiber
    against every permutation, and both projections on every comparable
    pair; fiber sizes against the hook-length formula over every plane
    tree.  The extremes are looked up on ``tamari`` at call time, so a
    fault patched in there reaches this oracle as well."""
    perms = list(enumerate_fixing_one(n))
    pair_index = {pair: k for k, pair in enumerate(itertools.combinations(range(1, n + 1), 2))}
    mask_of = {p: _inversion_mask(p, pair_index) for p in perms}

    fibers = {}
    for p in perms:
        fibers.setdefault(first_inversions(p), []).append(p)

    interval_bad = []
    top_of = {}
    bottom_of = {}
    for fif, members in fibers.items():
        top, bottom = tamari._extremes(fif)
        if top not in members or bottom not in members:
            interval_bad.append(f"extremes escape fiber {fif}")
            continue
        tm, bm = mask_of[top], mask_of[bottom]
        if not avoids(top, 213):
            interval_bad.append(f"top {top} contains 213")
        if not avoids(bottom, 312):
            interval_bad.append(f"bottom {bottom} contains 312")
        member_set = set(members)
        for p in perms:
            inside = bm & ~mask_of[p] == 0 and mask_of[p] & ~tm == 0
            if inside != (p in member_set):
                interval_bad.append(f"fiber {fif} is not the interval [{bottom}, {top}] at {p}")
                break
        for p in members:
            top_of[p] = tm
            bottom_of[p] = bm

    up_bad = []
    down_bad = []
    for a in perms:
        ma = mask_of[a]
        for b in perms:
            if ma & ~mask_of[b] == 0:  # a <= b in weak order
                if top_of[a] & ~top_of[b] != 0:
                    up_bad.append(f"upper projection reverses {a} <= {b}")
                if bottom_of[a] & ~bottom_of[b] != 0:
                    down_bad.append(f"lower projection reverses {a} <= {b}")
    hooks_ok = all(
        len(fibers.get(fif_from_tree(t), ())) * hook_product(t) == math.factorial(n - 1)
        for t in plane_trees(n)
    )
    return {
        "fiber-interval": not interval_bad,
        "upper-projection-monotone": not up_bad,
        "lower-projection-monotone": not down_bad,
        "fiber-hook-count": hooks_ok,
    }


def _passed(results):
    return {c.name: c.passed for c in results}


class TestElements:
    def test_constructors_agree(self):
        a = TamariElement.from_fif(first_inversions((1, 6, 2, 3, 5, 7, 4)))
        b = TamariElement.from_tree(WORKED_SHAPE)
        c = TamariElement.from_fif((3, 8, 8, 7, 7, 8, 8))
        assert a == b == c
        assert len({a, b, c}) == 1
        assert a.tree == WORKED_SHAPE
        assert a.size == 7

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError):
            TamariElement.from_fif((4, 5, 5, 5))

    def test_table_checked_before_any_tree_is_built(self, monkeypatch):
        # the tree is built when read, so the table is validated up front
        monkeypatch.setattr(tamari, "tree_from_first_inversions", None)
        for bad in ((), (4, 5, 5, 5), (2, 5, 5, 5), (3, 5, 5, 4)):
            with pytest.raises(ValueError):
                TamariElement.from_fif(bad)

    def test_join_and_meet_refuse_a_result_off_the_lattice(self):
        # the constructor itself does not validate; join and meet do, eagerly
        crossing = TamariElement((4, 5, 5, 5))
        with pytest.raises(RuntimeError, match="pointwise minimum left the lattice"):
            tamari_join(crossing, crossing)
        with pytest.raises(RuntimeError, match="orbit meet left the lattice"):
            tamari_meet(crossing, crossing)

    def test_tree_is_built_from_the_table(self):
        for t in plane_trees(6):
            a = TamariElement.from_tree(t)
            for b in (TamariElement.from_tree(u) for u in plane_trees(6)):
                for e in (tamari_join(a, b), tamari_meet(a, b), TamariElement.from_fif(a.fif)):
                    assert e.tree == tree_from_first_inversions(e.fif)

    def test_join_meet_check_builds_no_tree(self, monkeypatch):
        built = []
        real = tamari.tree_from_first_inversions
        monkeypatch.setattr(tamari, "tree_from_first_inversions", lambda fif: built.append(fif) or real(fif))
        for n in range(1, 7):
            assert checks._join_meet(n) is None
        assert built == []
        assert tamari_join(*[TamariElement.from_tree(t) for t in plane_trees(3)]).tree == real((3, 4, 4))
        assert built == [(3, 4, 4)]

    def test_element_count_is_catalan(self):
        for n in range(1, 7):
            elements = {
                TamariElement.from_fif(first_inversions(p))
                for p in enumerate_fixing_one(n)
            }
            assert len(elements) == catalan(n - 1)


class TestJoinMeet:
    def test_star_is_bottom_path_is_top(self):
        for n in range(2, 7):
            star = TamariElement.from_tree(((),) * (n - 1))
            path = ()
            for _ in range(n - 1):
                path = (path,)
            top = TamariElement.from_tree(path)
            for p in enumerate_fixing_one(n):
                x = TamariElement.from_fif(first_inversions(p))
                assert tamari_leq(star, x)
                assert tamari_leq(x, top)
                assert tamari_join(star, x) == x
                assert tamari_meet(top, x) == x

    def test_idempotent_and_commutative(self):
        elements = [
            TamariElement.from_tree(t) for t in plane_trees(5)
        ]
        for a in elements:
            assert tamari_join(a, a) == a
            assert tamari_meet(a, a) == a
        for a, b in itertools.combinations(elements, 2):
            assert tamari_join(a, b) == tamari_join(b, a)
            assert tamari_meet(a, b) == tamari_meet(b, a)

    def test_absorption(self):
        elements = [TamariElement.from_tree(t) for t in plane_trees(5)]
        for a, b in itertools.product(elements, repeat=2):
            assert tamari_join(a, tamari_meet(a, b)) == a
            assert tamari_meet(a, tamari_join(a, b)) == a

    def test_lattice_laws_on_large_random_pairs(self):
        # the laws above at 50-400 vertices; meet agrees with leq on a
        # random pair, mostly incomparable, and on pairs comparable by construction
        rng = random.Random(2025)
        for _ in range(200):
            n = rng.randint(50, 400)
            a, b = (TamariElement.from_tree(random_plane_tree(n, rng)) for _ in range(2))
            join, meet = tamari_join(a, b), tamari_meet(a, b)
            assert tamari_join(a, meet) == a and tamari_meet(a, join) == a
            assert tamari_join(a, a) == a and tamari_meet(a, a) == a
            assert join == tamari_join(b, a) and meet == tamari_meet(b, a)
            assert tamari_leq(a, join) and tamari_leq(meet, a)
            for x, y in ((a, b), (b, a), (meet, a), (a, join), (join, a)):
                assert (tamari_meet(x, y) == x) == tamari_leq(x, y)

    def test_against_order_oracle(self):
        for n in range(1, 6):
            classes, leq = quotient_oracle(n)
            elements = {c: TamariElement.from_fif(c) for c in classes}
            for x, cx in enumerate(classes):
                for y, cy in enumerate(classes):
                    assert tamari_leq(elements[cx], elements[cy]) == leq[x][y]
                    j = tamari_join(elements[cx], elements[cy])
                    m = tamari_meet(elements[cx], elements[cy])
                    assert j.fif == oracle_bound(classes, leq, x, y, True)
                    assert m.fif == oracle_bound(classes, leq, x, y, False)

    def test_meets_and_joins_stay_inside(self):
        for n in range(1, 7):
            elements = [TamariElement.from_tree(t) for t in plane_trees(n)]
            for a, b in itertools.combinations(elements, 2):
                tamari_join(a, b)
                tamari_meet(a, b)

    def test_meet_is_least_common_orbit_value(self):
        # the orbit-intersection meet: per argument, the least value on
        # both forward orbits
        for n in range(1, 8):
            elements = [TamariElement.from_tree(t) for t in plane_trees(n)]
            orbits = {
                e.fif: [set(forward_orbit(e.fif, i)) for i in range(2, n + 1)]
                for e in elements
            }
            for a, b in itertools.product(elements, repeat=2):
                oa, ob = orbits[a.fif], orbits[b.fif]
                want = tuple(min(x & y) for x, y in zip(oa, ob)) + (n + 1,)
                assert tamari_meet(a, b).fif == want, (a.fif, b.fif)

    def test_size_mismatch(self):
        a = TamariElement.from_tree(())
        b = TamariElement.from_tree(((),))
        with pytest.raises(ValueError):
            tamari_join(a, b)
        with pytest.raises(ValueError):
            tamari_meet(a, b)


class TestPentagon:
    def test_shape(self):
        classes, leq = quotient_oracle(4)
        assert len(classes) == 5
        strictly_below = lambda x, y: leq[x][y] and x != y
        covers = [
            (x, y)
            for x in range(5)
            for y in range(5)
            if strictly_below(x, y)
            and not any(
                strictly_below(x, z) and strictly_below(z, y) for z in range(5)
            )
        ]
        assert len(covers) == 5

    def test_maximal_chain_lengths(self):
        classes, leq = quotient_oracle(4)
        bottom = classes.index((5, 5, 5, 5))
        top = classes.index((3, 4, 5, 5))

        def chains(x, seen):
            if x == top:
                yield len(seen)
                return
            ups = [
                y
                for y in range(5)
                if leq[x][y]
                and x != y
                and not any(
                    leq[x][z] and leq[z][y] and z not in (x, y)
                    for z in range(5)
                )
            ]
            for y in ups:
                yield from chains(y, seen + [y])

        lengths = sorted(chains(bottom, [bottom]))
        assert lengths == [3, 4]


class TestFibers:
    def test_worked_example(self):
        f = fiber(WORKED_SHAPE)
        assert f.top == (1, 7, 2, 3, 5, 6, 4)
        assert f.bottom == (1, 3, 2, 4, 6, 7, 5)
        assert (1, 6, 2, 3, 5, 7, 4) in f.members
        assert len(f.members) == 5

    def test_star_fiber_is_identity_alone(self):
        f = fiber(((), (), ()))
        assert f.members == ((1, 2, 3, 4),)
        assert f.top == f.bottom == (1, 2, 3, 4)

    def test_path_fiber_is_reversal_alone(self):
        f = fiber(((((),),),))
        assert f.members == ((1, 4, 3, 2),)

    def test_fibers_partition_permutations(self):
        for n in range(1, 7):
            total = 0
            for t in plane_trees(n):
                f = fiber(t)
                total += len(f.members)
                assert all(
                    plane_shape(first_inversion_tree(p)) == t
                    for p in f.members
                )
            import math

            assert total == math.factorial(n - 1)

    def test_extremes_match_the_labelings(self):
        # read off the table, the extremes are the stack labelings' permutations
        for n in range(1, 10):
            for t in plane_trees(n):
                want = (
                    perm_from_increasing_tree(eastpush_labeling(t)),
                    perm_from_increasing_tree(westpop_labeling(t)),
                )
                assert tamari._extremes(fif_from_tree(t)) == want, t

    def test_extremes_avoid_patterns(self):
        for t in plane_trees(6):
            f = fiber(t)
            assert avoids(f.top, 213)
            assert avoids(f.bottom, 312)

    def test_members_lie_between_extremes(self):
        for t in plane_trees(6):
            f = fiber(t)
            for p in f.members:
                assert weak_leq(f.bottom, p)
                assert weak_leq(p, f.top)

    def test_limit_guard(self):
        # the cap is on members: at most (limit - 1)! of them, whatever n
        star = ((),) * 40
        assert fiber(star).members == (tuple(range(1, 42)),)
        twin = ((((),),),) * 2  # a root over two 3-vertex paths: C(5, 2) = 10 members
        assert len(fiber(twin, limit=5).members) == 10
        with pytest.raises(ValueError, match=r"fiber of 10 members exceeds the cap 6 "):
            fiber(twin, limit=4)

    def test_long_path_has_one_member(self):
        path = ()
        for _ in range(29):
            path = (path,)
        f = fiber(path)
        assert f.members == ((1, *range(30, 1, -1)),)
        assert f.top == f.bottom == f.members[0]

    def test_wide_fiber_is_refused_up_front(self):
        arm = ()
        for _ in range(19):
            arm = (arm,)  # a 20-vertex path
        with pytest.raises(ValueError, match="68923264410"):
            fiber((arm, arm))
        assert fiber_size((arm, arm)) == math.comb(39, 19)
        for _ in range(80):
            arm = (arm,)  # a 100-vertex path; C(199, 99) has 59 digits
        with pytest.raises(ValueError, match=r"fiber of over 10\^20 members exceeds the cap 5040 "):
            fiber((arm, arm))

    def test_members_match_the_permutation_scan(self):
        # one scan per n buckets every permutation by the shape over it
        for n in range(1, 9):
            buckets = {}
            for p in enumerate_fixing_one(n):
                buckets.setdefault(plane_shape(first_inversion_tree(p)), []).append(p)
            assert len(buckets) == catalan(n - 1)
            for t in plane_trees(n):
                assert fiber(t).members == tuple(buckets[t]), t
                assert fiber_size(t) == len(buckets[t]), t

    def test_fiber_size_is_the_hook_length_formula(self):
        for n in range(1, 9):
            for t in plane_trees(n):
                assert fiber_size(t) * hook_product(t) == math.factorial(n - 1), t

    def test_random_larger_fibers(self):
        # random attachment at 9-14 vertices, then long spines (each vertex
        # hangs off the one before with probability 0.85) of 20-60 vertices
        # and 50-5,040 members, where an element may travel far before
        # moving back home
        rng = random.Random(2024)
        trees = [random_plane_tree(rng.randint(9, 14), rng) for _ in range(16)]
        while len(trees) < 28:
            parents = [v - 1 if rng.random() < 0.85 else rng.randrange(v) for v in range(1, rng.randint(20, 60))]
            t = tree_of_index(_children_table(parents))
            if 50 <= fiber_size(t) <= 5040:
                trees.append(t)
        for t in trees:
            f = fiber(t, limit=14)
            fif = fif_from_tree(t)
            assert list(f.members) == sorted(set(f.members))
            assert len(f.members) == fiber_size(t)
            assert all(first_inversions(p) == fif for p in f.members)
            assert f.top in f.members and f.bottom in f.members


class TestCongruence:
    def test_small_sizes_pass(self):
        for n in range(1, 7):
            results = verify_congruence(n)
            assert all(c.passed for c in results)
            assert all(c.details == f"n={n}" for c in results)
            assert len(results) == 4

    def test_matches_pairwise_oracle(self):
        for n in range(1, 7):
            assert _passed(verify_congruence(n)) == _verify_congruence_pairwise(n), n

    def test_matches_pairwise_oracle_on_swapped_labelings(self, monkeypatch):
        real = tamari._extremes
        monkeypatch.setattr(tamari, "_extremes", lambda fif: real(fif)[::-1])
        for n in range(1, 7):
            report = verify_congruence(n)
            oracle = _verify_congruence_pairwise(n)
            assert _passed(report) == oracle, n
            # from n = 4 on some fiber holds more than one permutation
            assert oracle["fiber-interval"] is (n < 4), n
        detail = report[0].details
        assert "is not the interval" in detail and " at (1, " in detail

    def test_misfiled_permutation_fails_the_interval(self, monkeypatch):
        # one permutation, neither extreme of its fiber, filed under the
        # identity's: that fiber gains a member outside its interval, which
        # part (i) names, and the home fiber a hole below its top, which
        # only part (ii), on the covers, can see
        n = 5
        real = tamari._first_inversions
        home = next(f for f in map(fiber, plane_trees(n)) if len(f.members) > 2)
        stray = next(p for p in home.members if p not in (home.top, home.bottom))
        identity = tuple(range(1, n + 1))
        star = real(identity)
        monkeypatch.setattr(tamari, "_first_inversions", lambda p: star if p == stray else real(p))
        interval = verify_congruence(n)[0]
        assert interval.name == "fiber-interval" and not interval.passed
        assert f"fiber {star} is not the interval [{identity}, {identity}] at {stray}" in interval.details
        assert f"fiber {real(stray)} is not the interval [{home.bottom}, {home.top}] at {stray}" in interval.details

    def test_up_covers_add_one_inversion(self):
        for n in range(1, 7):
            perms = list(enumerate_fixing_one(n))
            inv = {p: inversions(p) for p in perms}
            for p in perms:
                one_more = {q for q in perms if inv[p] < inv[q] and len(inv[q]) == len(inv[p]) + 1}
                covers = _up_covers(p)
                assert len(covers) == len(set(covers))
                assert set(covers) == one_more, p

    def test_rank_indexed_covers_and_masks(self):
        # the sweep's covers are the swapped tuples' indices, and its masks
        # the inversion sets, in its bit layout: pair (i, j) at (i - 1) * n + j - 1
        for n in range(1, 8):
            perms = list(enumerate_fixing_one(n))
            index = {p: i for i, p in enumerate(perms)}
            pair_index = {(i, j): (i - 1) * n + j - 1 for i, j in itertools.combinations(range(1, n + 1), 2)}
            up, mask_of = _covers_by_rank(perms)
            assert up == [[index[q] for q in _up_covers(p)] for p in perms], n
            assert mask_of == [_inversion_mask(p, pair_index) for p in perms], n

    def test_cover_closure_is_weak_order(self):
        for n in range(1, 7):
            perms = list(enumerate_fixing_one(n))
            for p in perms:
                reached = {p}
                stack = [p]
                while stack:
                    for q in _up_covers(stack.pop()):
                        if q not in reached:
                            reached.add(q)
                            stack.append(q)
                assert reached == {q for q in perms if weak_leq(p, q)}, p

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            verify_congruence(ENUMERATION_LIMIT + 1)
        with pytest.raises(ValueError):
            verify_congruence(0)
