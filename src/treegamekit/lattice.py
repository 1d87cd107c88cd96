"""The distributive lattice of prunings of a plane tree.

A pruning keeps the root together with a parent-closed set of further
vertices (an order ideal of the ancestor order).  Prunings are stored as
bitmasks over the preorder numbering of the base tree, so join and meet
are bitwise or/and, the rank of a pruning is its edge count, and cover
moves add one frontier vertex (a vertex outside whose parent is inside).

Being order ideals, the prunings need not be listed to be queried
(Birkhoff; Stanley, EC1 3.4).  ``PruningLattice`` answers from the
children masks alone, in O(n): the count is the product of
1 + count(child) over each vertex's children, a mask is a pruning when
it holds the root, no bit past the tree, and each other vertex only with
its parent, and its covers add one vertex of its frontier.  Only
iteration lists the masks, on first use.

The masks are listed bottom up over descending preorder ids, each
vertex's list extended one child at a time by every join of a mask so
far with one of the child's, so each mask costs one ``|``.  The joins are
taken child mask by child mask, and a child's preorder ids exceed every
id listed before it, so the listing comes out ascending by value; one
stable sort by ``int.bit_count`` then orders it by rank, then value.

The rank generating function of this lattice is the game polynomial, so
``rank_generating_function`` is the product over root subtrees
(``poly.game_polynomial``), computable far beyond the sizes a lattice can
be materialized at.  ``PruningLattice.rank_polynomial`` reaches the same
polynomial by enumerating the lattice; it is the cross-check, and the
constructor refuses trees of more than ``MATERIALIZE_LIMIT = 20`` vertices.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

from . import poly
from .perm import separator_placements
from .poly import MATERIALIZE_LIMIT
from .tree import PlaneTree, _first_inversion_children, index_tree, tree_of_index


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subtree_masks(children: Sequence[Sequence[int]]) -> list[int]:
    """Every pruning's mask of the tree below vertex 0 of ``children``, a
    children table whose child ids exceed their parent's, built over
    descending ids: a vertex's list starts as its own bit, and each child
    in turn adds every mask so far joined with each of the child's masks,
    taken child mask by child mask.  Over preorder ids each child's bits
    lie above every bit so far, so the list comes out ascending."""
    below: dict[int, list[int]] = {}
    for v in range(len(children) - 1, -1, -1):
        out = [1 << v]
        for c in children[v]:
            child_masks = below.pop(c)
            out += [a | b for b in child_masks for a in out]
        below[v] = out
    return below[0]


def _check_size(size: int) -> None:
    """Refuse a tree too large to list the prunings of."""
    if size > MATERIALIZE_LIMIT:
        raise ValueError(f"tree has {size} vertices; lattices are materialized only up to {MATERIALIZE_LIMIT}")


class PruningLattice:
    """All prunings of a base tree, ordered by rank then bitmask value.
    Count, membership, covers and pruned subtrees come from the children
    masks in O(n); only iteration lists the prunings, on first use.  The
    constructor refuses more than ``MATERIALIZE_LIMIT`` vertices."""

    def __init__(self, base: PlaneTree):
        self.children = index_tree(base)
        self.size = len(self.children)
        _check_size(self.size)
        self._childmask = tuple([sum(1 << c for c in kids) for kids in self.children])

    @functools.cached_property
    def _listing(self) -> list[int]:
        masks = _subtree_masks(self.children)
        masks.sort(key=int.bit_count)  # stable, so by rank, then by value
        return masks

    def _reach(self, mask: object) -> int | None:
        """The children of ``mask``'s vertices, or None when ``mask`` is no
        pruning: an int that holds the root, no bit at or above ``size``,
        and each other vertex only with its parent."""
        if not isinstance(mask, int) or mask < 0 or not mask & 1 or mask >> self.size:
            return None
        reach = 0
        for v in _bits(mask):
            reach |= self._childmask[v]
        return reach if mask & ~reach == 1 else None  # the root is no vertex's child

    def __len__(self) -> int:
        count = [0] * self.size
        for v in range(self.size - 1, -1, -1):
            count[v] = math.prod([1 + count[c] for c in self.children[v]])
        return count[0]

    def __iter__(self) -> Iterator[int]:
        return iter(self._listing)

    def __contains__(self, mask: object) -> bool:
        return self._reach(mask) is not None

    def rank(self, mask: int) -> int:
        return mask.bit_count() - 1

    def frontier(self, mask: int) -> int:
        """The vertices outside pruning ``mask`` whose parent is inside."""
        reach = self._reach(mask)
        if reach is None:
            raise ValueError("mask is not a pruning of the base tree")
        return reach & ~mask

    def covers_above(self, mask: int) -> list[int]:
        return [mask | (1 << v) for v in _bits(self.frontier(mask))]  # ascending: _bits ascends, and no v is in mask

    def rank_polynomial(self) -> poly.Poly:
        out = [0] * self.size
        for m in self:
            out[m.bit_count() - 1] += 1
        return poly.Poly(out)

    def pruned_subtree(self, mask: int) -> PlaneTree:
        """The pruning itself as a plane tree (base child order kept)."""
        if mask not in self:
            raise ValueError("mask is not a pruning of the base tree")
        return tree_of_index([[c for c in kids if mask >> c & 1] for kids in self.children])


def rank_generating_function(t: PlaneTree) -> poly.Poly:
    """Sum of q^rank over prunings.  This is the game polynomial, so it is
    the product over root subtrees in ``poly.game_polynomial``;
    ``PruningLattice.rank_polynomial`` enumerates the same sum.

    >>> str(rank_generating_function(((), ())))
    '1 + 2*q + q^2'
    >>> str(rank_generating_function((((),),)))
    '1 + q + q^2'
    """
    return poly.game_polynomial(t)


def placements_match_prunings(p: Sequence[int]) -> bool:
    """Check that mapping a valid separator set S of ``p`` to the vertex
    set {p(i) : i in S} plus the root of its first-inversion tree is a
    rank-preserving order isomorphism onto the tree's prunings.

    Only two things can fail: an image that is not a pruning, and a count
    that differs.  The map sends position i to the vertex labelled p(i),
    which is one-to-one on positions 2..n and never reaches the root
    (labelled p(1) = 1).  So |S| is the image's rank, distinct sets have
    distinct images, and S1 is a subset of S2 exactly when image 1 is of
    image 2; with every image a pruning and as many sets as prunings, the
    map is onto as well."""
    children = _first_inversion_children(p)  # by label - 1, so vertex p(i) has bit p(i) - 1
    _check_size(len(children))
    prunings = frozenset(_subtree_masks(children))

    placements = separator_placements(p)
    for cuts in placements:
        m = 1
        for i in cuts:
            m |= 1 << (p[i - 1] - 1)
        if m not in prunings:
            return False
    return len(placements) == len(prunings)
