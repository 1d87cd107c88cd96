"""Tests for tree grammars, the bijection, and the stack labelings."""

import functools
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegamekit.perm import (
    avoids,
    check_first_inversions,
    enumerate_fixing_one,
    first_inversions,
)
from treegamekit.tree import (
    _fold,
    _increasing_postorder,
    canonicalize,
    eastpush_labeling,
    fif_from_tree,
    first_inversion_tree,
    format_labeled_tree,
    format_plane_tree,
    index_tree,
    is_increasing,
    parse_labeled_tree,
    parse_plane_tree,
    perm_from_increasing_tree,
    plane_shape,
    plane_trees,
    random_plane_tree,
    rooted_trees,
    tree_from_first_inversions,
    tree_of_index,
    vertex_count,
    westpop_labeling,
)

from test_cli import DEEP
from test_lattice import increasing_tree_shapes, preorder, small_and_random_trees

WORKED_PERM = (1, 6, 2, 3, 5, 7, 4)
WORKED_SHAPE = (((),), (), ((), ()))


def catalan(m):
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    return math.comb(2 * m, m) // (m + 1)


def increasing_trees(n):
    """All increasing trees on labels 1..n (children ordered by label),
    enumerated by choosing each label's parent among the smaller labels."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for parents in itertools.product(*(range(1, v) for v in range(2, n + 1))):
        kids = [[] for _ in range(n)]  # vertex v - 1 carries label v
        for v, par in enumerate(parents, start=2):
            kids[par - 1].append(v - 1)
        yield tree_of_index(kids, range(1, n + 1))


@functools.lru_cache(maxsize=None)
def recursive_forests(total):
    """Plane forests of ``total`` vertices by recursion on the size: a
    first tree of k vertices (the forest of its root's k - 1 descendants),
    then a forest of the other total - k.  ``plane_trees`` lists the same
    forests in the same order bottom up."""
    if total == 0:
        return ((),)
    return tuple(
        (t, *rest)
        for k in range(1, total + 1)
        for t in recursive_forests(k - 1)
        for rest in recursive_forests(total - k)
    )


plane_tree_st = st.recursive(
    st.just(()),
    lambda kids: st.lists(kids, max_size=4).map(tuple),
    max_leaves=12,
)


# Oracles the package itself no longer needs: plain recursive walks and
# ancestor-chain tests, fine on the small trees used here.


def postorder(t):
    """Subtrees in postorder (children left to right, then the vertex)."""
    return [s for c in t for s in postorder(c)] + [t]


def postorder_labels(lt):
    lbl, kids = lt
    return [x for c in kids for x in postorder_labels(c)] + [lbl]


def postorder_ids(idx, v=0):
    return [u for c in idx.children[v] for u in postorder_ids(idx, c)] + [v]


def _root_chain(idx, v):
    chain = [v]
    while idx.parent[chain[-1]] >= 0:
        chain.append(idx.parent[chain[-1]])
    chain.reverse()
    return chain


def is_strict_ancestor(idx, u, v):
    while idx.parent[v] >= 0:
        v = idx.parent[v]
        if v == u:
            return True
    return False


def is_left_of(idx, u, v):
    """True when ``u`` sits in a subtree hanging off a left sibling of
    some ancestor-or-self of ``v`` (neither may be an ancestor of the
    other)."""
    if u == v:
        return False
    cu = _root_chain(idx, u)
    cv = _root_chain(idx, v)
    k = 0
    while k < min(len(cu), len(cv)) and cu[k] == cv[k]:
        k += 1
    if k == len(cu) or k == len(cv):
        return False
    sibs = idx.children[cu[k - 1]]
    return sibs.index(cu[k]) < sibs.index(cv[k])


class TestGrammar:
    def test_parse_plane(self):
        assert parse_plane_tree("()") == ()
        assert parse_plane_tree("(() (() ()))") == ((), ((), ()))
        assert parse_plane_tree("((()) () (()()))") == WORKED_SHAPE

    def test_plane_round_trip(self):
        for text in ["()", "(() ())", "(() (() ((()))))", "((()) ((() ())))"]:
            t = parse_plane_tree(text)
            assert format_plane_tree(t) == text
            assert parse_plane_tree(format_plane_tree(t)) == t

    @given(plane_tree_st)
    def test_plane_round_trip_generated(self, t):
        assert parse_plane_tree(format_plane_tree(t)) == t

    def test_parse_plane_errors(self):
        for text in ["", "(", "())", "(a)", "() ()", "(()"]:
            with pytest.raises(ValueError):
                parse_plane_tree(text)

    def test_parse_labeled(self):
        assert parse_labeled_tree("1") == (1, ())
        assert parse_labeled_tree("1(2 3)") == (1, ((2, ()), (3, ())))
        lt = parse_labeled_tree("1(2(6) 3 4(5 7))")
        assert lt == (
            1,
            ((2, ((6, ()),)), (3, ()), (4, ((5, ()), (7, ())))),
        )

    def test_labeled_round_trip(self):
        for text in ["1", "1(2)", "1(2(6) 3 4(5 7))", "1(2(3) 4 5(6 7))"]:
            lt = parse_labeled_tree(text)
            assert format_labeled_tree(lt) == text
            assert parse_labeled_tree(format_labeled_tree(lt)) == lt

    def test_parse_labeled_errors(self):
        for text in ["", "()", "1(", "1)", "1(2))", "x(2)", "1(2 2x)"]:
            with pytest.raises(ValueError):
                parse_labeled_tree(text)

    def test_labels_are_decimal_digits(self):
        # superscripts are digits to str.isdigit but not to int(): they are
        # no label, at the position where one was expected
        for text, pos in [("1(\u00b2)", 2), ("\u00b9", 0), ("1(2 3\u00b2)", 5)]:
            with pytest.raises(ValueError, match=f"expected a label at position {pos}|trailing input at position {pos}"):
                parse_labeled_tree(text)
        # digits of other scripts are decimal, and int() reads them
        assert parse_labeled_tree("1(\u0662)") == (1, ((2, ()),))


class TestTraversals:
    def test_vertex_count(self):
        assert vertex_count(()) == 1
        assert vertex_count(WORKED_SHAPE) == 7

    def test_postorder_subtree_count(self):
        assert len(postorder(WORKED_SHAPE)) == 7
        assert postorder(())[-1] == ()

    def test_postorder_labels_worked_example(self):
        lt = parse_labeled_tree("1(2(6) 3 4(5 7))")
        assert postorder_labels(lt) == [6, 2, 3, 5, 7, 4, 1]

    def test_index_round_trip(self):
        for t in plane_trees(6):
            assert tree_of_index(index_tree(t)) == t

    def test_index_ids_are_preorder(self):
        idx = preorder(WORKED_SHAPE)
        assert idx.parent[0] == -1
        assert index_tree(WORKED_SHAPE) == idx.children
        assert idx.children[0] == [1, 3, 4]
        assert postorder_ids(idx) == [2, 1, 3, 5, 6, 4, 0]

    def test_labeled_index_keeps_labels(self):
        lt = parse_labeled_tree("1(2(6) 3 4(5 7))")
        idx = preorder(lt, labelled=True)
        assert idx.labels == [1, 2, 6, 3, 4, 5, 7]
        assert len(idx.parent) == 7
        assert tree_of_index(index_tree(plane_shape(lt)), idx.labels) == lt


class TestAncestry:
    def test_examples(self):
        idx = preorder(WORKED_SHAPE)
        # ids in preorder: 0 root, 1 2 first branch, 3 middle leaf,
        # 4 5 6 last branch
        assert is_strict_ancestor(idx, 0, 6)
        assert not is_strict_ancestor(idx, 6, 0)
        assert not is_strict_ancestor(idx, 1, 1)
        assert is_left_of(idx, 2, 3)
        assert is_left_of(idx, 1, 6)
        assert not is_left_of(idx, 6, 1)
        assert not is_left_of(idx, 0, 3)

    def test_trichotomy(self):
        for t in plane_trees(7):
            idx = preorder(t)
            for u, v in itertools.combinations(range(len(idx.parent)), 2):
                flags = (
                    is_strict_ancestor(idx, u, v),
                    is_strict_ancestor(idx, v, u),
                    is_left_of(idx, u, v),
                    is_left_of(idx, v, u),
                )
                assert sum(flags) == 1

    def test_postorder_position_law(self):
        for t in plane_trees(7):
            idx = preorder(t)
            pos = {v: k for k, v in enumerate(postorder_ids(idx))}
            for u in range(len(idx.parent)):
                for v in range(len(idx.parent)):
                    if u == v:
                        continue
                    expected = is_left_of(idx, u, v) or is_strict_ancestor(
                        idx, v, u
                    )
                    assert (pos[u] < pos[v]) == expected


class TestBijection:
    def test_worked_example(self):
        lt = first_inversion_tree(WORKED_PERM)
        assert format_labeled_tree(lt) == "1(2(6) 3 4(5 7))"
        assert plane_shape(lt) == WORKED_SHAPE
        assert plane_shape(parse_labeled_tree("1(4(7 5) 3 2(6))")) == WORKED_SHAPE  # children by label

    def test_worked_example_inverse(self):
        lt = parse_labeled_tree("1(2(6) 3 4(5 7))")
        assert perm_from_increasing_tree(lt) == WORKED_PERM

    def test_identity_maps_to_star(self):
        lt = first_inversion_tree((1, 2, 3, 4))
        assert format_labeled_tree(lt) == "1(2 3 4)"

    def test_decreasing_tail_maps_to_path(self):
        lt = first_inversion_tree((1, 4, 3, 2))
        assert format_labeled_tree(lt) == "1(2(3(4)))"

    def test_round_trip_exhaustive(self):
        for n in range(1, 8):
            for p in enumerate_fixing_one(n):
                lt = first_inversion_tree(p)
                assert is_increasing(lt)
                assert perm_from_increasing_tree(lt) == p

    def test_image_is_all_increasing_trees(self):
        for n in range(1, 7):
            image = {
                first_inversion_tree(p) for p in enumerate_fixing_one(n)
            }
            assert image == set(increasing_trees(n))

    def test_non_increasing_tree_rejected(self):
        with pytest.raises(ValueError):
            perm_from_increasing_tree(parse_labeled_tree("1(3(2))"))

    def test_table_read_off_the_tree(self):
        # the plane shape alone carries the first-inversion table
        for n in range(1, 8):
            for p in enumerate_fixing_one(n):
                shape = plane_shape(first_inversion_tree(p))
                assert fif_from_tree(shape) == first_inversions(p)


class TestTableTreeCorrespondence:
    def test_worked_example(self):
        assert fif_from_tree(WORKED_SHAPE) == (3, 8, 8, 7, 7, 8, 8)

    def test_star_has_all_sentinels(self):
        assert fif_from_tree(((), (), ())) == (5, 5, 5, 5)

    def test_path_has_consecutive_table(self):
        assert fif_from_tree(((((),),),)) == (3, 4, 5, 5)

    def test_tables_validate(self):
        for t in plane_trees(8):
            check_first_inversions(fif_from_tree(t))

    def test_round_trip_from_trees(self):
        for n in range(1, 9):
            for t in plane_trees(n):
                assert tree_from_first_inversions(fif_from_tree(t)) == t

    def test_round_trip_from_tables(self):
        for n in range(1, 8):
            tables = {first_inversions(p) for p in enumerate_fixing_one(n)}
            assert len(tables) == catalan(n - 1)
            for table in tables:
                assert fif_from_tree(tree_from_first_inversions(table)) == table

    def test_rejects_crossing_table(self):
        with pytest.raises(ValueError):
            tree_from_first_inversions((4, 5, 5, 5))


class TestStackLabelings:
    def test_eastpush_worked_example(self):
        lt = eastpush_labeling(WORKED_SHAPE)
        assert format_labeled_tree(lt) == "1(2(7) 3 4(5 6))"
        assert perm_from_increasing_tree(lt) == (1, 7, 2, 3, 5, 6, 4)

    def test_westpop_worked_example(self):
        lt = westpop_labeling(WORKED_SHAPE)
        assert format_labeled_tree(lt) == "1(2(3) 4 5(6 7))"
        assert perm_from_increasing_tree(lt) == (1, 3, 2, 4, 6, 7, 5)

    def test_both_preserve_shape_and_increase(self):
        for t in plane_trees(7):
            for labeling in (eastpush_labeling, westpop_labeling):
                lt = labeling(t)
                assert plane_shape(lt) == t
                assert is_increasing(lt)

    def test_westpop_is_preorder_numbering(self):
        for t in plane_trees(7):
            labels = preorder(westpop_labeling(t), labelled=True).labels
            assert labels == list(range(1, vertex_count(t) + 1))

    def test_eastpush_label_order_law(self):
        # u is labeled before v exactly when u lies right of v's parent,
        # hangs off a non-parent ancestor of v, or is an earlier sibling
        for t in plane_trees(7):
            idx = preorder(eastpush_labeling(t), labelled=True)
            labels = idx.labels
            for u in range(len(idx.parent)):
                for v in range(len(idx.parent)):
                    if u == v:
                        continue
                    pu, pv = idx.parent[u], idx.parent[v]
                    right_of_parent = pv >= 0 and is_left_of(idx, pv, u)
                    # the root counts as hanging off an imaginary ancestor
                    # shared by every vertex
                    if pu < 0:
                        off_other_ancestor = pv >= 0
                    else:
                        off_other_ancestor = pu != pv and is_strict_ancestor(
                            idx, pu, v
                        )
                    earlier_sibling = pu == pv and pu >= 0 and (
                        idx.children[pu].index(u) < idx.children[pu].index(v)
                    )
                    expected = (
                        right_of_parent or off_other_ancestor or earlier_sibling
                    )
                    assert (labels[u] < labels[v]) == expected

    def test_westpop_label_order_law(self):
        # u is labeled before v exactly when u is an ancestor of v or
        # lies to its left
        for t in plane_trees(7):
            idx = preorder(westpop_labeling(t), labelled=True)
            labels = idx.labels
            for u in range(len(idx.parent)):
                for v in range(len(idx.parent)):
                    if u == v:
                        continue
                    expected = is_strict_ancestor(idx, u, v) or is_left_of(
                        idx, u, v
                    )
                    assert (labels[u] < labels[v]) == expected

    def test_extremes_avoid_their_patterns(self):
        for n in range(1, 9):
            for t in plane_trees(n):
                top = perm_from_increasing_tree(eastpush_labeling(t))
                bottom = perm_from_increasing_tree(westpop_labeling(t))
                assert avoids(top, 213)
                assert avoids(bottom, 312)
                # both land back in the fiber of t
                assert plane_shape(first_inversion_tree(top)) == t
                assert plane_shape(first_inversion_tree(bottom)) == t

    def test_avoider_tree_maps_are_bijections(self):
        for n in range(1, 8):
            perms = list(enumerate_fixing_one(n))
            tops = {
                perm_from_increasing_tree(eastpush_labeling(t))
                for t in plane_trees(n)
            }
            bottoms = {
                perm_from_increasing_tree(westpop_labeling(t))
                for t in plane_trees(n)
            }
            assert tops == {p for p in perms if avoids(p, 213)}
            assert bottoms == {p for p in perms if avoids(p, 312)}


class TestCanonicalize:
    def test_sorts_siblings(self):
        assert canonicalize(((), ((),))) == ((), ((),))
        assert canonicalize((((),), ())) == ((), ((),))

    def test_idempotent(self):
        for t in plane_trees(7):
            c = canonicalize(t)
            assert canonicalize(c) == c

    def test_invariant_under_sibling_shuffle(self):
        rng = random.Random(5)

        def shuffled(t):
            kids = [shuffled(c) for c in t]
            rng.shuffle(kids)
            return tuple(kids)

        for t in plane_trees(7):
            for _ in range(3):
                assert canonicalize(shuffled(t)) == canonicalize(t)

    def test_counts(self):
        for n in range(1, 9):
            canon = {canonicalize(t) for t in plane_trees(n)}
            assert canon == set(rooted_trees(n))


class TestEnumerations:
    def test_catalan(self):
        assert [catalan(m) for m in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_plane_tree_counts(self):
        for n in range(1, 9):
            assert len(plane_trees(n)) == catalan(n - 1)

    def test_plane_trees_distinct_and_sized(self):
        for n in range(1, 8):
            ts = plane_trees(n)
            assert len(set(ts)) == len(ts)
            assert all(vertex_count(t) == n for t in ts)

    def test_plane_tree_order_matches_recursion(self):
        for n in range(1, 10):
            assert plane_trees(n) == recursive_forests(n - 1)

    def test_rooted_trees_unchanged(self):
        # one canonical form per shape, ordered by text length, then text
        def key(t):
            return len(format_plane_tree(t)), format_plane_tree(t)

        for n in range(1, 11):
            shapes = {canonicalize(t) for t in recursive_forests(n - 1)}
            assert rooted_trees(n) == tuple(sorted(shapes, key=key))

    def test_rooted_tree_counts(self):
        got = [len(rooted_trees(n)) for n in range(1, 11)]
        assert got == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]

    def test_rooted_trees_are_canonical(self):
        for n in range(1, 9):
            assert all(canonicalize(t) == t for t in rooted_trees(n))

    def test_increasing_tree_counts(self):
        for n in range(1, 8):
            trees = list(increasing_trees(n))
            assert len(trees) == math.factorial(n - 1)
            assert len(set(trees)) == len(trees)
            assert all(is_increasing(lt) for lt in trees)
            assert all(lt[0] == 1 for lt in trees)

    def test_increasing_shapes_with_multiplicity(self):
        for n in range(1, 7):
            shapes = list(increasing_tree_shapes(n))
            assert len(shapes) == math.factorial(n - 1)
            assert set(shapes) <= set(plane_trees(n))

    def test_enumerations_reject_nonpositive(self):
        with pytest.raises(ValueError):
            plane_trees(0)
        with pytest.raises(ValueError):
            list(increasing_trees(0))


class TestRandomTrees:
    def test_deterministic(self):
        a = random_plane_tree(12, random.Random(7))
        b = random_plane_tree(12, random.Random(7))
        assert a == b

    def test_sizes(self):
        rng = random.Random(0)
        for n in (1, 2, 5, 16):
            assert vertex_count(random_plane_tree(n, rng)) == n

    def test_lands_in_enumeration(self):
        rng = random.Random(3)
        universe = set(plane_trees(5))
        for _ in range(50):
            assert random_plane_tree(5, rng) in universe

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            random_plane_tree(0, random.Random(0))


# ---------------------------------------------------------------------------
# the inline walks against the _fold walks they replaced

def fold_increasing_postorder(lt):
    post = []

    def leave(node, increasing):
        post.append(node[0])
        return all(increasing) and all(node[0] < child[0] for child in node[1])

    ok = _fold(lt, lambda node: iter(sorted(node[1], key=lambda c: c[0])), leave)
    return post if ok and sorted(post) == list(range(1, len(post) + 1)) else None


def fold_fif(t):
    table = []

    def place(node, kid_positions):
        table.append(0)
        for k in kid_positions:
            table[k - 1] = len(table) + 1
        return len(table)

    _fold(t, iter, place)
    table[-1] = len(table) + 1
    return tuple(table)


def relabel(t, labels):
    """``t`` labelled by ``labels`` in preorder, child order kept."""
    return tree_of_index(index_tree(t), labels)


def reversed_children(lt):
    """``lt`` with every child list reversed."""
    idx = preorder(lt, labelled=True)
    return tree_of_index([kids[::-1] for kids in idx.children], idx.labels)


def deep_trees():
    """Paths and caterpillars deeper than twice the recursion limit."""
    path = ()
    for _ in range(DEEP - 1):
        path = (path,)
    rng = random.Random(DEEP)
    caterpillar = ()
    for _ in range(DEEP):
        caterpillar = ((),) * rng.randrange(3) + (caterpillar,) + ((),) * rng.randrange(3)
    return path, caterpillar


class TestInlineWalksMatchFold:
    def test_plane_tree_walks(self):
        for t in small_and_random_trees():
            assert fif_from_tree(t) == fold_fif(t)

    def test_increasing_trees(self):
        rng = random.Random(5)
        for t in small_and_random_trees():
            n = vertex_count(t)
            for lt in (westpop_labeling(t), eastpush_labeling(t)):
                for variant in (lt, reversed_children(lt)):
                    post = _increasing_postorder(variant)
                    assert post is not None and post == fold_increasing_postorder(variant)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            lt = relabel(t, labels)
            assert _increasing_postorder(lt) == fold_increasing_postorder(lt)

    def test_every_small_labelling(self):
        # labels from 0..n+1 in every arrangement: children at or below
        # their parent's label, repeated labels, and labels other than 1..n
        for n in range(1, 5):
            for t in plane_trees(n):
                for labels in itertools.product(range(n + 2), repeat=n):
                    lt = relabel(t, labels)
                    post = _increasing_postorder(lt)
                    assert post == fold_increasing_postorder(lt)
                    if post is None:
                        with pytest.raises(ValueError, match="labels must be 1..n"):
                            perm_from_increasing_tree(lt)
                    else:
                        assert perm_from_increasing_tree(lt) == (1, *post[:-1])

    def test_non_increasing_cases(self):
        for text in ["1(2(2))", "1(3(2))", "2(3)", "1(2 2)", "1(1)", "1(3 4)", "0(1 2)", "1(2(4) 3(4))"]:
            lt = parse_labeled_tree(text)
            assert _increasing_postorder(lt) is None
            assert fold_increasing_postorder(lt) is None
            assert not is_increasing(lt)

    def test_deep_trees(self):
        path, caterpillar = deep_trees()
        assert fif_from_tree(path) == (*range(3, DEEP + 2), DEEP + 1)
        assert format_plane_tree(path) == "(" * DEEP + ")" * DEEP
        assert perm_from_increasing_tree(westpop_labeling(path)) == (1, *range(DEEP, 1, -1))
        for t in (path, caterpillar):
            assert fif_from_tree(t) == fold_fif(t)
            for lt in (westpop_labeling(t), eastpush_labeling(t)):
                p = perm_from_increasing_tree(lt)
                assert p == (1, *fold_increasing_postorder(lt)[:-1])
                # == on nested tuples this deep would recurse, so compare the texts
                assert format_labeled_tree(first_inversion_tree(p)) == format_labeled_tree(lt)


# ---------------------------------------------------------------------------
# the text formats against the character-by-character code they replaced

_skip_ws = re.compile(r"\s*").match


def oracle_parse_plane_tree(text):
    open_lists = [[]]  # one per open vertex, below one that takes the root
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if open_lists[0]:
            raise ValueError(f"trailing input at position {pos} in plane-tree text")
        if ch == "(":
            open_lists.append([])
        elif ch == ")" and len(open_lists) > 1:
            done = tuple(open_lists.pop())
            open_lists[-1].append(done)
        else:
            raise ValueError(f"expected '(' at position {pos} in plane-tree text")
    if len(open_lists) > 1:
        raise ValueError(f"unbalanced '(': input ended at position {len(text)}")
    if not open_lists[0]:
        raise ValueError(f"expected '(' at position {len(text)} in plane-tree text")
    return open_lists[0][0]


def oracle_format_plane_tree(t):
    parts = []
    _fold(t, lambda node: parts.append("(") or iter(node), lambda node, _: parts.append(")"))
    return "".join(parts).replace(")(", ") (")


def oracle_parse_labeled_tree(text):
    n = len(text)
    pos = _skip_ws(text, 0).end()
    open_nodes = []  # (label, children so far) per open list
    while True:
        if pos >= n and open_nodes:
            raise ValueError(f"unbalanced '(': input ended at position {pos}")
        start = pos
        while pos < n and text[pos].isdecimal():  # exactly the digits int() reads
            pos += 1
        if pos == start:
            raise ValueError(f"expected a label at position {start} in labelled-tree text")
        try:
            node = (int(text[start:pos]), ())
        except ValueError:  # past the interpreter's digit limit
            message = f"label at position {start} is too long ({pos - start} digits) in labelled-tree text"
            raise ValueError(message) from None
        if pos < n and text[pos] == "(":
            open_nodes.append((node[0], []))
            pos = _skip_ws(text, pos + 1).end()
            if pos < n and text[pos] == ")":
                raise ValueError(f"empty child list at position {pos}; leaves omit parentheses")
            continue
        while True:  # the node is complete: close every list that ends here
            pos = _skip_ws(text, pos).end()
            if not open_nodes:
                if pos != n:
                    raise ValueError(f"trailing input at position {pos} in labelled-tree text")
                return node
            open_nodes[-1][1].append(node)
            if pos >= n or text[pos] != ")":
                break
            lbl, kids = open_nodes.pop()
            node = (lbl, tuple(kids))
            pos += 1


def oracle_format_labeled_tree(lt):
    parts = []  # a space before every label; the replace drops those after '('

    def enter(node):
        parts.append(f" {node[0]}(" if node[1] else f" {node[0]}")
        return iter(node[1])

    _fold(lt, enter, lambda node, _: node[1] and parts.append(")"))
    return "".join(parts).replace("( ", "(")[1:]


EDIT_ALPHABET = "(),x07٢² \t "
EDITED = 5000  # strings per parser


def edited(text, rng):
    """``text`` with one to three characters inserted, deleted or replaced,
    each inserted one drawn from ``EDIT_ALPHABET`` or the text itself."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        new = rng.choice(EDIT_ALPHABET + text)
        op = rng.randrange(3)
        if op == 0 or i == len(chars):
            chars.insert(i, new)
        elif op == 1:
            del chars[i]
        else:
            chars[i] = new
    return "".join(chars)


def outcome(parse, text):
    """What ``parse(text)`` returns, or the message of its ValueError."""
    try:
        return "value", parse(text)
    except ValueError as exc:
        return "error", str(exc)


def agree_on_edits(parse, oracle, canonical, seed):
    rng = random.Random(seed)
    errors = 0
    for k in range(EDITED):
        text = edited(canonical(rng), rng)
        got = outcome(parse, text)
        assert got == outcome(oracle, text), text
        errors += got[0] == "error"
    assert 0 < errors < EDITED  # both kinds of outcome were compared


def random_labeled_tree(rng):
    n = rng.randint(1, 12)
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    return first_inversion_tree((1, *rest))


class TestTextFormatsAgainstOracles:
    def test_plane_parse_on_edited_texts(self):
        agree_on_edits(parse_plane_tree, oracle_parse_plane_tree,
                       lambda rng: format_plane_tree(random_plane_tree(rng.randint(1, 12), rng)), 2801)

    def test_labeled_parse_on_edited_texts(self):
        agree_on_edits(parse_labeled_tree, oracle_parse_labeled_tree,
                       lambda rng: format_labeled_tree(random_labeled_tree(rng)), 2802)

    def test_formats_on_random_trees(self):
        rng = random.Random(2803)
        for _ in range(1000):
            t = random_plane_tree(rng.randint(1, 40), rng)
            assert format_plane_tree(t) == oracle_format_plane_tree(t)
            for lt in (random_labeled_tree(rng), eastpush_labeling(t), westpop_labeling(t)):
                assert format_labeled_tree(lt) == oracle_format_labeled_tree(lt)

    def test_whitespace_and_digits_the_oracles_accept(self):
        for text in ["\t(\n() (()　())\t()\n)　", "(()())", " ( ) ", "(\x1c)"]:
            assert parse_plane_tree(text) == oracle_parse_plane_tree(text)
        for text in ["01(2)", "1( 2 )", "1(٢)", "1(2(3)4)", " 1\t(2) ", "1(\x1c2\x1c)", "١(٢٣ 4)"]:
            assert outcome(parse_labeled_tree, text) == outcome(oracle_parse_labeled_tree, text)

    def test_deep_trees_round_trip(self):
        for t in deep_trees():
            text = format_plane_tree(t)
            assert text == oracle_format_plane_tree(t)
            assert format_plane_tree(parse_plane_tree(text)) == text
            for lt in (westpop_labeling(t), eastpush_labeling(t)):
                labeled = format_labeled_tree(lt)
                assert labeled == oracle_format_labeled_tree(lt)
                assert format_labeled_tree(parse_labeled_tree(labeled)) == labeled
