"""Plane trees, labelled trees, and the first-inversion tree bijection.

A plane tree is a nested tuple of its child trees; the single vertex is
``()``.  The text grammar is ``tree := '(' tree* ')'`` with optional
whitespace between siblings on input and a single space on output, so
``((()) () (() ()))`` is a root with three children.

A labelled tree is a ``(label, children)`` pair with positive integer
labels, written ``1(2(6) 3 4(5 7))``.  A labelled tree is increasing
when every child label exceeds its parent's and the labels are exactly
1..n (so the root is 1).

``first_inversion_tree`` sends a permutation fixing 1 to an increasing
tree: the parent of each non-initial value is the value at its first
inversion, or the root when there is none.  Reading the label-ordered
shape in postorder inverts this, and the two stack labelings
(``eastpush_labeling`` and ``westpop_labeling``) pick out the preimages
that avoid 213 and 312 respectively.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .perm import check_first_inversions, check_fixes_one, first_inversions

PlaneTree = tuple
LabeledTree = tuple


# ---------------------------------------------------------------------------
# text formats


def parse_plane_tree(text: str) -> PlaneTree:
    """Parse the parenthesis grammar; errors report character positions.

    >>> parse_plane_tree("(()(()))")
    ((), ((),))
    """
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def node() -> PlaneTree:
        nonlocal pos
        if pos >= n or text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} in plane-tree text")
        pos += 1
        kids = []
        while True:
            skip_ws()
            if pos >= n:
                raise ValueError(f"unbalanced '(': input ended at position {pos}")
            if text[pos] == ")":
                pos += 1
                return tuple(kids)
            kids.append(node())

    skip_ws()
    tree = node()
    skip_ws()
    if pos != n:
        raise ValueError(f"trailing input at position {pos} in plane-tree text")
    return tree


def format_plane_tree(t: PlaneTree) -> str:
    """Canonical text: single spaces between siblings.

    >>> format_plane_tree(((), ((),)))
    '(() (()))'
    """
    return "(" + " ".join(format_plane_tree(c) for c in t) + ")"


def parse_labeled_tree(text: str) -> LabeledTree:
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def label() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ValueError(f"expected a label at position {start} in labelled-tree text")
        return int(text[start:pos])

    def node() -> LabeledTree:
        nonlocal pos
        lbl = label()
        kids = []
        if pos < n and text[pos] == "(":
            pos += 1
            while True:
                skip_ws()
                if pos >= n:
                    raise ValueError(f"unbalanced '(': input ended at position {pos}")
                if text[pos] == ")":
                    if not kids:
                        raise ValueError(f"empty child list at position {pos}; leaves omit parentheses")
                    pos += 1
                    break
                kids.append(node())
        return (lbl, tuple(kids))

    skip_ws()
    tree = node()
    skip_ws()
    if pos != n:
        raise ValueError(f"trailing input at position {pos} in labelled-tree text")
    return tree


def format_labeled_tree(lt: LabeledTree) -> str:
    """
    >>> format_labeled_tree((1, ((2, ((6, ()),)), (3, ()), (4, ((5, ()), (7, ()))))))
    '1(2(6) 3 4(5 7))'
    """
    lbl, kids = lt
    if not kids:
        return str(lbl)
    return f"{lbl}(" + " ".join(format_labeled_tree(c) for c in kids) + ")"


# ---------------------------------------------------------------------------
# structure helpers


def vertex_count(t: PlaneTree) -> int:
    return 1 + sum(vertex_count(c) for c in t)


def postorder(t: PlaneTree) -> list[PlaneTree]:
    """Subtrees in postorder (children left to right, then the vertex)."""
    out: list[PlaneTree] = []

    def visit(node: PlaneTree) -> None:
        for c in node:
            visit(c)
        out.append(node)

    visit(t)
    return out


def postorder_labels(lt: LabeledTree) -> list[int]:
    out: list[int] = []

    def visit(node: LabeledTree) -> None:
        lbl, kids = node
        for c in kids:
            visit(c)
        out.append(lbl)

    visit(lt)
    return out


@dataclass(frozen=True)
class TreeIndex:
    """A plane tree flattened over preorder vertex ids (root is 0)."""

    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.parent)


def index_tree(t: PlaneTree) -> TreeIndex:
    parent: list[int] = []
    children: list[list[int]] = []

    def visit(node: PlaneTree, par: int) -> None:
        v = len(parent)
        parent.append(par)
        children.append([])
        if par >= 0:
            children[par].append(v)
        for c in node:
            visit(c, v)

    visit(t, -1)
    return TreeIndex(tuple(parent), tuple(tuple(k) for k in children))


def index_labeled_tree(lt: LabeledTree) -> tuple[TreeIndex, tuple[int, ...]]:
    parent: list[int] = []
    children: list[list[int]] = []
    labels: list[int] = []

    def visit(node: LabeledTree, par: int) -> None:
        lbl, kids = node
        v = len(parent)
        parent.append(par)
        children.append([])
        labels.append(lbl)
        if par >= 0:
            children[par].append(v)
        for c in kids:
            visit(c, v)

    visit(lt, -1)
    return TreeIndex(tuple(parent), tuple(tuple(k) for k in children)), tuple(labels)


def postorder_ids(idx: TreeIndex) -> list[int]:
    out: list[int] = []

    def visit(v: int) -> None:
        for c in idx.children[v]:
            visit(c)
        out.append(v)

    visit(0)
    return out


def tree_of_index(children: Sequence[Sequence[int]], v: int = 0) -> PlaneTree:
    """The plane tree below ``v`` of a children table, where ``children[u]``
    lists u's children in order (``TreeIndex.children`` is one)."""
    return tuple(tree_of_index(children, c) for c in children[v])


def _labeled_from_index(children: Sequence[Sequence[int]], labels: Sequence[int], v: int = 0) -> LabeledTree:
    return (labels[v], tuple(_labeled_from_index(children, labels, c) for c in children[v]))


def _children_table(parents: Sequence[int]) -> list[list[int]]:
    """Children lists of vertices 0..n-1 when vertex v >= 1 has parent
    ``parents[v - 1]``."""
    kids: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for v, par in enumerate(parents, start=1):
        kids[par].append(v)
    return kids


def _root_chain(idx: TreeIndex, v: int) -> list[int]:
    chain = [v]
    while idx.parent[chain[-1]] >= 0:
        chain.append(idx.parent[chain[-1]])
    chain.reverse()
    return chain


def is_strict_ancestor(idx: TreeIndex, u: int, v: int) -> bool:
    while idx.parent[v] >= 0:
        v = idx.parent[v]
        if v == u:
            return True
    return False


def is_left_of(idx: TreeIndex, u: int, v: int) -> bool:
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


# ---------------------------------------------------------------------------
# the bijection


def first_inversion_tree(p: Sequence[int]) -> LabeledTree:
    """The increasing tree whose parent map is the first-inversion table:
    each value hangs below the value at its first inversion, root 1.

    >>> format_labeled_tree(first_inversion_tree((1, 6, 2, 3, 5, 7, 4)))
    '1(2(6) 3 4(5 7))'
    """
    p = check_fixes_one(p)
    n = len(p)
    t = first_inversions(p)
    kids: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i in range(2, n + 1):
        ti = t[i - 2]
        parent = p[ti - 1] if ti <= n else 1
        kids[parent].append(p[i - 1])

    def build(lbl: int) -> LabeledTree:
        return (lbl, tuple(build(c) for c in sorted(kids[lbl])))

    return build(1)


def is_increasing(lt: LabeledTree) -> bool:
    n = len(postorder_labels(lt))
    seen: list[int] = []

    def visit(node: LabeledTree, parent_label: int) -> bool:
        lbl, kids = node
        seen.append(lbl)
        if lbl <= parent_label:
            return False
        return all(visit(c, lbl) for c in kids)

    return visit(lt, 0) and sorted(seen) == list(range(1, n + 1))


def _sorted_by_label(lt: LabeledTree) -> LabeledTree:
    lbl, kids = lt
    return (lbl, tuple(sorted((_sorted_by_label(c) for c in kids), key=lambda c: c[0])))


def perm_from_increasing_tree(lt: LabeledTree) -> tuple[int, ...]:
    """Invert ``first_inversion_tree``: order children by label and read
    the labels in postorder; the root closes the walk and the permutation
    starts with 1.

    >>> perm_from_increasing_tree((1, ((2, ((6, ()),)), (3, ()), (4, ((5, ()), (7, ()))))))
    (1, 6, 2, 3, 5, 7, 4)
    """
    if not is_increasing(lt):
        raise ValueError("labels must be 1..n and strictly increase away from the root")
    post = postorder_labels(_sorted_by_label(lt))
    return (1, *post[:-1])


def plane_shape(lt: LabeledTree) -> PlaneTree:
    """Forget labels after ordering each child list by label."""
    lbl, kids = _sorted_by_label(lt)

    def strip(node: LabeledTree) -> PlaneTree:
        _, ks = node
        return tuple(strip(c) for c in ks)

    return strip((lbl, kids))


# ---------------------------------------------------------------------------
# stack labelings


def eastpush_labeling(t: PlaneTree) -> LabeledTree:
    """Label on push: pop a vertex, then push its children left to right,
    handing out labels as they are pushed (root gets 1).

    >>> format_labeled_tree(eastpush_labeling(parse_plane_tree("((()) () (()()))")))
    '1(2(7) 3 4(5 6))'
    """
    idx = index_tree(t)
    labels = [0] * len(idx)
    labels[0] = 1
    counter = 2
    stack = [0]
    while stack:
        v = stack.pop()
        for c in idx.children[v]:
            labels[c] = counter
            counter += 1
            stack.append(c)
    return _labeled_from_index(idx.children, labels)


def westpop_labeling(t: PlaneTree) -> LabeledTree:
    """Label on pop: pop a vertex, give it the next label, then push its
    children right to left.

    >>> format_labeled_tree(westpop_labeling(parse_plane_tree("((()) () (()()))")))
    '1(2(3) 4 5(6 7))'
    """
    idx = index_tree(t)
    labels = [0] * len(idx)
    counter = 1
    stack = [0]
    while stack:
        v = stack.pop()
        labels[v] = counter
        counter += 1
        for c in reversed(idx.children[v]):
            stack.append(c)
    return _labeled_from_index(idx.children, labels)


# ---------------------------------------------------------------------------
# first-inversion tables as postorder parent maps


def fif_from_tree(t: PlaneTree) -> tuple[int, ...]:
    """Read a plane tree as a first-inversion table: the entry for the
    vertex at postorder position i - 1 is one past its parent's postorder
    position (the root, at position n, yields the sentinel n + 1)."""
    idx = index_tree(t)
    post = postorder_ids(idx)
    n = len(post)
    pos = {v: k + 1 for k, v in enumerate(post)}
    out = []
    for p in range(1, n):
        v = post[p - 1]
        out.append(pos[idx.parent[v]] + 1)
    out.append(n + 1)
    return tuple(out)


def tree_from_first_inversions(t: Sequence[int]) -> PlaneTree:
    """Rebuild the plane tree whose postorder parent map is ``t``.

    >>> format_plane_tree(tree_from_first_inversions((3, 8, 8, 7, 7, 8, 8)))
    '((()) () (() ()))'
    """
    t = check_first_inversions(t)
    n = len(t)
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for p in range(1, n):
        ti = t[p - 1]
        par = ti - 1 if ti <= n else n
        kids[par].append(p)

    order: list[int] = []

    def walk(v: int) -> None:
        for c in kids[v]:
            walk(c)
        order.append(v)

    walk(n)
    if order != list(range(1, n + 1)):
        raise ValueError("table does not describe postorder parents of any plane tree")
    return tree_of_index(kids, n)


# ---------------------------------------------------------------------------
# canonical forms and enumeration


def _canonical_with_key(t: PlaneTree) -> tuple[PlaneTree, str]:
    pairs = [_canonical_with_key(c) for c in t]
    pairs.sort(key=lambda cs: (len(cs[1]), cs[1]))
    tree = tuple(p[0] for p in pairs)
    return tree, "(" + " ".join(p[1] for p in pairs) + ")"


def canonicalize(t: PlaneTree) -> PlaneTree:
    """Order siblings by serialized encoding (length, then text), bottom
    up, giving one representative per unordered rooted tree.

    >>> canonicalize(((((),),), ()))
    ((), (((),),))
    """
    return _canonical_with_key(t)[0]


def catalan(m: int) -> int:
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    return math.comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def _forests(total: int) -> tuple[PlaneTree, ...]:
    if total == 0:
        return ((),)
    out = []
    for k in range(1, total + 1):
        for t in plane_trees(k):
            for rest in _forests(total - k):
                out.append((t, *rest))
    return tuple(out)


@lru_cache(maxsize=None)
def plane_trees(n: int) -> tuple[PlaneTree, ...]:
    """All plane trees with ``n`` vertices (there are catalan(n - 1))."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _forests(n - 1)


@lru_cache(maxsize=None)
def rooted_trees(n: int) -> tuple[PlaneTree, ...]:
    """Canonical representatives of unordered rooted trees on ``n`` vertices."""
    distinct = {canonicalize(t) for t in plane_trees(n)}
    return tuple(sorted(distinct, key=lambda t: (len(format_plane_tree(t)), format_plane_tree(t))))


def parent_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """Each vertex 1..n-1 picks a parent among the smaller vertices (entry
    v - 1 is the parent of v): one vector per increasing tree.  Returns the
    bare ``itertools.product`` iterator, as the census sweeps all (n-1)!."""
    return itertools.product(*(range(i) for i in range(1, n)))


def increasing_trees(n: int) -> Iterator[LabeledTree]:
    """All increasing trees on labels 1..n (children ordered by label),
    enumerated by choosing each label's parent among the smaller labels."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for par in parent_vectors(n):
        yield _labeled_from_index(_children_table(par), range(1, n + 1))


def increasing_tree_shapes(n: int) -> Iterator[PlaneTree]:
    """Shapes of all increasing trees on n labels, children by label."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for par in parent_vectors(n):
        yield tree_of_index(_children_table(par))


def random_plane_tree(n: int, rng: random.Random) -> PlaneTree:
    """A plane tree from the random-attachment model: vertex i picks a
    uniform parent among 0..i-1, children kept in creation order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return tree_of_index(_children_table([rng.randrange(v) for v in range(1, n)]))
