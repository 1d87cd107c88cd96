"""Tests for the lattice of prunings and its rank generating function."""

import functools
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import pytest

from treegamekit.lattice import (
    MATERIALIZE_LIMIT,
    PruningLattice,
    _subtree_masks,
    placements_match_prunings,
    rank_generating_function,
)
from treegamekit.perm import enumerate_fixing_one, separator_placements
from treegamekit.poly import Poly
from treegamekit.tree import (
    _children_table,
    canonicalize,
    first_inversion_tree,
    increasing_labelings,
    index_tree,
    parse_plane_tree,
    plane_trees,
    random_plane_tree,
    rooted_trees,
    tree_of_index,
    vertex_count,
)


class Preorder(NamedTuple):
    """A tree by preorder id (root 0, children left to right): each
    vertex's parent (-1 at the root), children and label (None in a plane
    tree)."""

    parent: list
    children: list
    labels: list


def preorder(t, labelled=False):
    """The ``Preorder`` of a plane tree, or of a labelled tree when
    ``labelled``, by a recursive walk of its own, apart from
    ``tree.index_tree``."""
    out = Preorder([], [], [])

    def visit(node, par):
        v = len(out.parent)
        label, kids = node if labelled else (None, node)
        out.parent.append(par)
        out.children.append([])
        out.labels.append(label)
        if par >= 0:
            out.children[par].append(v)
        for kid in kids:
            visit(kid, v)

    visit(t, -1)
    return out


def increasing_tree_shapes(n):
    """Shapes of all increasing trees on n labels, children by label: each
    vertex 1..n-1 picks a parent among the smaller ones."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for par in itertools.product(*(range(v) for v in range(1, n))):
        yield tree_of_index(_children_table(par))


def brute_prunings(t):
    """Vertex subsets containing the root and closed under parents."""
    idx = preorder(t)
    n = len(idx.parent)
    out = set()
    for bits in range(1 << n):
        if not bits & 1:
            continue
        ok = True
        for v in range(1, n):
            if bits >> v & 1 and not bits >> idx.parent[v] & 1:
                ok = False
                break
        if ok:
            out.add(bits)
    return out


def product_masks(idx):
    """Every pruning's mask in ``itertools.product`` order: a vertex's bit
    joined with one choice per child, nothing or one of the child's."""
    below = {}
    for v in range(len(idx.parent) - 1, -1, -1):
        options = [(0, *below.pop(c)) for c in idx.children[v]]
        below[v] = [(1 << v) | sum(combo) for combo in itertools.product(*options)]
    return below[0]


def small_and_random_trees():
    """Every plane tree of up to 9 vertices, seeded random trees of 10 to
    19, and the star with the most prunings a lattice may have."""
    for n in range(1, 10):
        yield from plane_trees(n)
    rng = random.Random(19)
    for n in range(10, 20):
        for _ in range(4):
            yield random_plane_tree(n, rng)
    yield ((),) * (MATERIALIZE_LIMIT - 1)


WORKED = parse_plane_tree("(() (() ()))")


class TestMaterialization:
    def test_single_vertex(self):
        lat = PruningLattice(())
        assert len(lat) == 1
        assert list(lat) == [1]
        assert (1 << lat.size) - 1 == 1

    def test_worked_example_count(self):
        assert len(PruningLattice(WORKED)) == 10

    def test_members_match_brute_force(self):
        for t in plane_trees(7):
            assert set(PruningLattice(t)) == brute_prunings(t)

    def test_masks_match_product_oracle(self):
        # the child-at-a-time listing holds the same masks, and the lattice
        # orders them as the (bit count, value) key does
        for t in small_and_random_trees():
            idx, children = preorder(t), index_tree(t)
            assert children == idx.children
            want = product_masks(idx)
            got = _subtree_masks(children)
            assert len(got) == len(want) and sorted(got) == sorted(want)
            assert got == sorted(got)
            assert list(PruningLattice(t)) == sorted(want, key=lambda m: (m.bit_count(), m))

    def test_enumeration_order(self):
        lat = PruningLattice(WORKED)
        ranks = [lat.rank(m) for m in lat]
        assert ranks == sorted(ranks)
        for r in range(vertex_count(WORKED)):
            level = [m for m in lat if lat.rank(m) == r]
            assert level == sorted(level)

    def test_bottom_and_top(self):
        for t in plane_trees(6):
            lat = PruningLattice(t)
            top = (1 << lat.size) - 1
            assert 1 in lat
            assert top in lat
            assert lat.rank(1) == 0
            assert lat.rank(top) == vertex_count(t) - 1

    def test_membership_matches_brute_force(self):
        # every int from below zero to past the top bit, against the
        # parent-closed subsets
        for n in range(1, 9):
            for t in plane_trees(n):
                lat, want = PruningLattice(t), brute_prunings(t)
                for m in range(-2, 1 << (lat.size + 1)):
                    assert (m in lat) == (m in want), (t, m)

    def test_queries_list_nothing(self, monkeypatch):
        from treegamekit import lattice

        def refuse(children):
            raise AssertionError("listed the prunings")

        monkeypatch.setattr(lattice, "_subtree_masks", refuse)
        star = ((),) * (MATERIALIZE_LIMIT - 1)
        lat = PruningLattice(star)
        top = (1 << lat.size) - 1
        assert len(lat) == 1 << (MATERIALIZE_LIMIT - 1)
        assert 1 in lat and top in lat and 0b110 not in lat
        assert lat.covers_above(1) == [1 | 1 << v for v in range(1, lat.size)]
        assert lat.covers_above(top) == []
        assert lat.pruned_subtree(top) == star
        with pytest.raises(AssertionError):
            list(lat)

    def test_non_int_masks(self):
        # a mask equal to a member but of another type is no member;
        # bool is an int, and True and False read as 1 and 0
        lat = PruningLattice(WORKED)
        for m in (1.0, 13.0, Fraction(1), "1", None, (1,)):
            assert m not in lat
            with pytest.raises(ValueError):
                lat.covers_above(m)
            with pytest.raises(ValueError):
                lat.pruned_subtree(m)
        assert True in lat and False not in lat
        assert lat.covers_above(True) == lat.covers_above(1)
        assert lat.pruned_subtree(True) == ()
        with pytest.raises(ValueError):
            lat.covers_above(False)

    def test_size_guard(self):
        path = ()
        for _ in range(MATERIALIZE_LIMIT):
            path = (path,)
        with pytest.raises(ValueError):
            PruningLattice(path)
        PruningLattice(path[0])


class TestCovers:
    def test_worked_example(self):
        lat = PruningLattice(WORKED)
        # vertices in preorder: root 0, leaf 1, inner 2 with leaves 3, 4
        mask = 0b01101
        assert mask in lat
        assert lat.covers_above(mask) == [0b01111, 0b11101]

    def test_cover_relation_is_rank_plus_one(self):
        for t in plane_trees(7):
            lat = PruningLattice(t)
            for m in lat:
                for c in lat.covers_above(m):
                    assert c in lat
                    assert lat.rank(c) == lat.rank(m) + 1
                    assert m & c == m

    def test_covers_are_exactly_single_vertex_extensions(self):
        for t in plane_trees(6):
            lat = PruningLattice(t)
            members = set(lat)
            for m in lat:
                expected = {
                    c
                    for c in members
                    if c & m == m and c.bit_count() == m.bit_count() + 1
                }
                assert set(lat.covers_above(m)) == expected

    def test_top_covers_nothing_above(self):
        lat = PruningLattice(WORKED)
        assert len(lat.covers_above((1 << lat.size) - 1)) == 0

    def test_rejects_non_member(self):
        lat = PruningLattice(WORKED)
        with pytest.raises(ValueError):
            lat.covers_above(0b10)
        with pytest.raises(ValueError):
            lat.covers_above(0)


class TestJoinMeet:
    def test_closure(self):
        for t in plane_trees(8):
            lat = PruningLattice(t)
            members = list(lat)
            member_set = set(lat)
            for a, b in itertools.combinations(members, 2):
                assert (a | b) in member_set
                assert (a & b) in member_set

    def test_join_meet_are_bounds(self):
        # ordered by mask containment, the prunings' least upper bound is
        # a | b and their greatest lower bound a & b
        for t in plane_trees(6):
            members = list(PruningLattice(t))
            for a, b in itertools.combinations(members, 2):
                uppers = [u for u in members if u & a == a and u & b == b]
                lowers = [m for m in members if m & a == m and m & b == m]
                assert a | b in uppers and all(u & (a | b) == a | b for u in uppers)
                assert a & b in lowers and all(m & (a & b) == m for m in lowers)

    def test_distributive(self):
        # Birkhoff: a finite distributive lattice is the down-sets of its
        # join-irreducibles, the elements covering exactly one other; for
        # prunings these are the n - 1 root-to-vertex paths, and each
        # pruning above the root alone is the join of the paths it holds
        for n in range(1, 8):
            for t in plane_trees(n):
                lat = PruningLattice(t)
                below = Counter(c for m in lat for c in lat.covers_above(m))
                parent = preorder(t).parent
                paths = set()
                for v in range(1, n):
                    path, u = 0, v
                    while u >= 0:
                        path |= 1 << u
                        u = parent[u]
                    paths.add(path)
                assert len(paths) == n - 1
                assert {c for c, k in below.items() if k == 1} == paths
                for m in lat:
                    if m != 1:
                        assert functools.reduce(operator.or_, (p for p in paths if p & m == p)) == m


class TestRankGeneratingFunction:
    def test_star(self):
        assert rank_generating_function(((), (), ())) == Poly((1, 3, 3, 1))

    def test_path(self):
        assert rank_generating_function(((((),),),)) == Poly((1, 1, 1, 1))

    def test_worked_example(self):
        assert rank_generating_function(WORKED) == Poly((1, 2, 3, 3, 1))

    def test_matches_lattice_histogram(self):
        for t in plane_trees(8):
            assert rank_generating_function(t) == (
                PruningLattice(t).rank_polynomial()
            )

    def test_large_tree_uses_recursion(self):
        path = ()
        for _ in range(24):
            path = (path,)
        assert rank_generating_function(path) == Poly((1,) * 25)

    def test_total_count_at_one(self):
        # the counted size, the listed size and phi(1) agree
        for n in range(1, 10):
            for t in plane_trees(n):
                lat = PruningLattice(t)
                assert len(lat) == len(list(lat)) == rank_generating_function(t)(1)


class TestPrunedSubtrees:
    def test_bottom_is_single_vertex(self):
        lat = PruningLattice(WORKED)
        assert lat.pruned_subtree(1) == ()

    def test_top_is_base(self):
        for t in plane_trees(6):
            lat = PruningLattice(t)
            assert lat.pruned_subtree((1 << lat.size) - 1) == t

    def test_sizes_match_rank(self):
        lat = PruningLattice(WORKED)
        for m in lat:
            assert vertex_count(lat.pruned_subtree(m)) == lat.rank(m) + 1

    def test_rejects_non_member(self):
        lat = PruningLattice(WORKED)
        with pytest.raises(ValueError):
            lat.pruned_subtree(0b10110)


class TestPlacementCorrespondence:
    def test_exhaustive_small(self):
        for n in range(1, 7):
            for p in enumerate_fixing_one(n):
                assert placements_match_prunings(p)

    def test_worked_example(self):
        assert placements_match_prunings((1, 6, 2, 3, 5, 7, 4))

    def test_rank_distinctness_and_order_follow(self):
        # the checks the docstring argues cannot fail, run in full: each
        # image has the set's size as its rank, no two sets share an image,
        # and containment of sets is containment of images
        for n in range(1, 7):
            for p in enumerate_fixing_one(n):
                labels = preorder(first_inversion_tree(p), labelled=True).labels
                id_of = {lbl: v for v, lbl in enumerate(labels)}
                mapped = []
                for cuts in separator_placements(p):
                    m = functools.reduce(operator.or_, (1 << id_of[p[i - 1]] for i in cuts), 1)
                    assert m.bit_count() - 1 == len(cuts)
                    mapped.append((frozenset(cuts), m))
                assert len({m for _, m in mapped}) == len(mapped)
                for s1, m1 in mapped:
                    for s2, m2 in mapped:
                        assert (s1 <= s2) == (m1 & ~m2 == 0)

    def test_detects_a_wrong_map(self, monkeypatch):
        # checked against the lattice of another tree: an image that is no
        # pruning of it fails the first test, and a count that differs the second
        from treegamekit import lattice

        real = lattice._subtree_masks

        # 1(2(3) 4) against its mirror image: 6 prunings each, but the
        # image {1, 4} is no pruning of the mirror
        monkeypatch.setattr(lattice, "_subtree_masks", lambda children: real(index_tree(((), ((),)))))
        assert not placements_match_prunings((1, 3, 2, 4))
        monkeypatch.setattr(lattice, "_subtree_masks", lambda children: real(index_tree(((), ()))))
        assert not placements_match_prunings((1, 3, 2))  # 3 placements, 4 prunings

    def test_refuses_past_the_lattice_limit(self):
        # the identity's tree is a star of MATERIALIZE_LIMIT + 1 vertices,
        # refused as the lattice refuses it
        with pytest.raises(ValueError) as lattice_refusal:
            PruningLattice(((),) * MATERIALIZE_LIMIT)
        with pytest.raises(ValueError) as refusal:
            placements_match_prunings(tuple(range(1, MATERIALIZE_LIMIT + 2)))
        assert str(refusal.value) == str(lattice_refusal.value)
        assert str(refusal.value) == "tree has 21 vertices; lattices are materialized only up to 20"

    def test_weight_identity_over_shapes(self):
        # summing rank generating functions over tree shapes with
        # multiplicity counts placements by size; its signed value is
        # the sequence term
        from treegamekit.seq import (
            census_by_stirling_sum,
            separator_weight_polynomial,
        )

        for n in range(1, 8):
            total = Poly()
            for shape in increasing_tree_shapes(n):
                total = total + rank_generating_function(shape)
            assert total == separator_weight_polynomial(n)
            assert total(-1) == census_by_stirling_sum(n)

    def test_shape_weight_counts_increasing_trees(self):
        # grouped by unordered shape, the (n - 1)! increasing trees fall
        # into the classes of rooted_trees, each as large as its weight
        for n in range(1, 9):
            groups = Counter(canonicalize(shape) for shape in increasing_tree_shapes(n))
            assert sorted(groups) == sorted(rooted_trees(n)), n
            for shape in rooted_trees(n):
                assert groups[shape] == increasing_labelings(shape), (n, shape)
