"""The Tamari lattice as a quotient of the weak order on permutations
fixing 1.

Elements are keyed by first-inversion tables (equivalently plane trees,
via the postorder parent reading).  The fiber of a tree consists of all
permutations whose first-inversion tree has that shape; each fiber is a
weak-order interval whose top avoids 213 and whose bottom avoids 312.
It is a sylvester class (Hivert, Novelli and Thibon, *The algebra of
binary search trees*, 2005): the increasing labelings of the tree whose
sibling labels rise left to right, that is, the linear extensions of
its left-child right-sibling binary tree, read in postorder.  ``fiber``
generates exactly those by Varol and Rotem's adjacent swaps (Knuth,
TAOCP Vol. 4A, Section 7.2.1.2, Algorithm V), and its cap is on the
member count, which the hook-length formula for forests gives up front
(``fiber_size``; Bjorner and Wachs, *q-hook length formulas for
forests*, 1989).
Join is the pointwise minimum of tables; meet takes, argument by
argument, the smallest common member of the two forward orbits, found
by walking both increasing chains.
``verify_congruence`` checks the interval property, that both
projections (fiber top and fiber bottom) preserve weak order, and that
every fiber has its hook count of members, and returns one
``CheckResult`` for each of the four.  Weak order is the
transitive closure of its covers, so the projections are checked on
covers only.  A fiber is the interval [bottom, top] exactly when (i)
every member's inversion mask lies between the bottom's and the top's,
and (ii) no up-cover from a member to a permutation still below the top
leaves the fiber: (i) puts the fiber inside the interval, and a chain of
up-covers from the bottom to any permutation of the interval stays below
the top, so by (ii) it never leaves the fiber.  (i) is checked fiber by
fiber, and (ii) in the one pass over covers that checks the projections.
The sweep keeps no permutation index.  Each fiber's extremes are read
off its table (``_extremes``): the tree's vertices are numbered in the
pop order of the west-pop walk and in the push order of the east-push
walk, and both numberings are read by postorder position.  Each
permutation knows its fiber by position (``fiber_of``), and
``enumerate_fixing_one`` is lexicographic, so a permutation's position
is its Lehmer rank, and an up-cover, which raises one Lehmer digit by 1,
sits a factorial further on; inversion masks pass from each permutation
to its up-covers, one bit at a time, in position order
(``_covers_by_rank``).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .perm import (
    Perm,
    _first_inversions,
    avoids,
    check_first_inversions,
    enumerate_fixing_one,
)
from .report import CheckResult
from .tree import PlaneTree, _fif_children, _push_order, fif_from_tree, tree_from_first_inversions

ENUMERATION_LIMIT = 8
_NAMED = 10**20  # a refused fiber's count is named in full up to this


class TamariElement(NamedTuple):
    """One lattice element: a first-inversion table, which ``from_fif``
    validates, and its plane tree, built from the table on each read
    (join and meet read only tables)."""

    fif: tuple[int, ...]

    @classmethod
    def from_fif(cls, fif: Sequence[int]) -> "TamariElement":
        return cls(check_first_inversions(fif))

    @classmethod
    def from_tree(cls, tree: PlaneTree) -> "TamariElement":
        return cls(fif_from_tree(tree))

    @property
    def tree(self) -> PlaneTree:
        return tree_from_first_inversions(self.fif)

    @property
    def size(self) -> int:
        return len(self.fif)


def tamari_join(a: TamariElement, b: TamariElement) -> TamariElement:
    """Pointwise minimum of the two tables."""
    if a.size != b.size:
        raise ValueError("elements must have the same size")
    merged = tuple(min(x, y) for x, y in zip(a.fif, b.fif))
    try:
        return TamariElement.from_fif(merged)
    except ValueError as exc:
        raise RuntimeError(f"pointwise minimum left the lattice: {exc}") from exc


def tamari_meet(a: TamariElement, b: TamariElement) -> TamariElement:
    """Argument by argument, the least common value of the two forward
    orbits.  Both orbits rise to the sentinel, so advancing whichever
    chain stands lower meets them there at the latest."""
    if a.size != b.size:
        raise ValueError("elements must have the same size")
    n = a.size
    ta, tb = a.fif, b.fif
    merged = []
    for i in range(2, n + 1):
        x, y = ta[i - 2], tb[i - 2]
        while x != y:
            if x < y:
                x = ta[x - 2]
            else:
                y = tb[y - 2]
        merged.append(x)
    merged.append(n + 1)
    try:
        return TamariElement.from_fif(merged)
    except ValueError as exc:
        raise RuntimeError(f"orbit meet left the lattice: {exc}") from exc


def tamari_leq(a: TamariElement, b: TamariElement) -> bool:
    return tamari_join(a, b) == b


class Fiber(NamedTuple):
    """All permutations whose first-inversion tree has a given shape."""

    tree: PlaneTree
    members: tuple[Perm, ...]
    top: Perm
    bottom: Perm


def _hook_count(fif: Sequence[int], stop: int | None = None) -> int:
    """``fiber_size`` of the tree whose postorder parent map is ``fif``.

    A vertex's hook, its subtree with its right siblings' subtrees, fills
    the postorder positions from the start of its subtree up to, not
    including, its parent's position; positions are taken in order, so
    each subtree's start is known before its root is reached.  The count
    (n - 1)! / prod h(v) is taken as the product over vertices v of
    C(h(v) - 1, s(v) - 1), s(v) the size of v's subtree: v comes first
    in its hook, and the rest interleave its descendants with its right
    siblings' subtrees.  No factor is below 1, so the product only grows;
    once it passes ``stop`` it is returned as it stands, a lower bound."""
    n = len(fif)
    start = list(range(n + 1))  # by 1-based postorder position
    count = 1
    for j in range(1, n):
        parent = fif[j - 1] - 1
        count *= math.comb(parent - start[j] - 1, j - start[j])
        if stop is not None and count > stop:
            return count
        start[parent] = min(start[parent], start[j])
    return count


def fiber_size(tree: PlaneTree) -> int:
    """The number of permutations over ``tree``: (n - 1)! divided by the
    product of the hooks h(v) of the non-root vertices, where h(v) is the
    size of v's subtree plus the sizes of its right siblings' subtrees.

    >>> fiber_size((((),), (), ((), ())))
    5
    """
    return _hook_count(fif_from_tree(tree))


def _fiber_members(fif: Sequence[int]) -> list[Perm]:
    """The fiber of the tree whose postorder parent map is ``fif``, in
    generation order: the linear extensions of its left-child
    right-sibling binary tree, listed by Varol and Rotem's adjacent swaps
    (Knuth, TAOCP Vol. 4A, Section 7.2.1.2, Algorithm V, mirrored so that
    elements move right).

    The elements 1..n-1 are the non-root vertices in preorder, itself a
    linear extension and the fiber's bottom; the element at place j gets
    label j + 1.  ``label`` is indexed by postorder position, with the
    root's 1 at 0, so it reads as the member, and it also gives each
    element its place.  Element k moves right past its neighbour unless
    k is that neighbour's binary-tree parent (its plane parent for a
    first child, its left sibling otherwise): in a linear extension of a
    tree order, an ancestor standing directly left of a vertex is its
    parent.  When k can go no further it moves back home, to place k, and
    k + 1 is tried; after every move the walk starts again from element
    1.  The walk holds O(n) besides the output and spends O(n) per
    member, most of it copying ``label``."""
    n = len(fif)
    kids = _fif_children(fif)
    label = [1] * n
    pos = [0] * n  # by element, its postorder position
    up = [0] * n  # by element, its binary-tree parent; 0 for the root's first child
    k = 0
    # (siblings, the index of the next one, its binary-tree parent)
    stack = [(kids[n], 0, 0)] if n > 1 else []
    while stack:
        siblings, i, parent = stack.pop()
        k += 1
        v = siblings[i]
        pos[k], up[k], label[v] = v, parent, k + 1
        if i + 1 < len(siblings):
            stack.append((siblings, i + 1, k))
        if kids[v]:
            stack.append((kids[v], 0, k))
    place = list(range(n))  # by place, its element
    members = [tuple(label)]
    last = n - 1
    k = 1
    while k < last:
        j = label[pos[k]] - 1
        if j < last and up[place[j + 1]] != k:
            l = place[j + 1]
            place[j], place[j + 1] = l, k
            label[pos[k]], label[pos[l]] = j + 2, j + 1
            members.append(tuple(label))
            k = 1
            continue
        if j > k:  # move k back home
            for i in range(j, k, -1):
                l = place[i] = place[i - 1]
                label[pos[l]] = i + 1
            place[k] = k
            label[pos[k]] = k + 1
        k += 1
    return members


def _extremes(fif: Sequence[int]) -> tuple[Perm, Perm]:
    """The top and bottom of the fiber over table ``fif``: the
    permutations read off its tree's east-push and west-pop labelings.

    The children lists are indexed by postorder position, the table's
    own indexing, with the root at n.  Both labelings rise left to right
    among siblings, so ordering children by label keeps the plane order,
    and the permutation a labeling gives (``perm_from_increasing_tree``)
    is 1 followed by its labels at positions 1..n-1.  West-pop labels in
    pop order, which is preorder, and east-push in push order."""
    n = len(fif)
    kids = _fif_children(fif)
    top = [0] * (n + 1)
    for label, v in enumerate(_push_order(kids, n), start=1):
        top[v] = label
    bottom = [0] * (n + 1)
    stack = [n]
    label = 0
    while stack:
        v = stack.pop()
        label += 1
        bottom[v] = label
        stack += reversed(kids[v])
    return (1, *top[1:n]), (1, *bottom[1:n])


def fiber(tree: PlaneTree, limit: int = ENUMERATION_LIMIT) -> Fiber:
    """Materialize a fiber, its members sorted; the top and bottom come
    from the two stack labelings.  Refused when it has more members than
    the (limit - 1)! permutations of ``limit`` vertices."""
    fif = fif_from_tree(tree)
    if len(fif) > limit:  # else it has at most (n - 1)! <= (limit - 1)! members
        cap = math.factorial(limit - 1)
        size = _hook_count(fif, stop=max(cap, _NAMED))
        if size > cap:
            count = size if size <= _NAMED else "over 10^20"
            raise ValueError(f"fiber of {count} members exceeds the cap {cap} = ({limit} - 1)!")
    members = _fiber_members(fif)
    members.sort()
    top, bottom = _extremes(fif)
    if top not in members or bottom not in members:
        raise AssertionError("stack labelings must land in their own fiber")
    return Fiber(tree, tuple(members), top, bottom)


# ---------------------------------------------------------------------------
# congruence verification


def _covers_by_rank(perms: Sequence[Perm]) -> tuple[list[list[int]], list[int]]:
    """Up-covers and inversion masks of ``perms`` (in the order of
    ``enumerate_fixing_one``) by index, the Lehmer rank: swapping k at i
    with k + 1 at j > i adds 1 to Lehmer digit i and bit i * n + j to the
    mask.  Every permutation but the first covers one before it."""
    n = len(perms[0])
    step = [math.factorial(n - 1 - i) for i in range(n)]
    mask_of = [0] * len(perms)
    up = []
    ids = list(range(len(perms)))  # one int object per index, shared by all covers
    where = [0] * (n + 1)  # by value, its position in p
    for idx, p in enumerate(perms):
        for i, v in enumerate(p):
            where[v] = i
        covers = []
        for i, j in zip(where[2:], where[3:]):  # the positions of k and k + 1, k = 2..n-1
            if i < j:
                q = ids[idx + step[i]]
                mask_of[q] = mask_of[idx] | 1 << (i * n + j)
                covers.append(q)
        up.append(covers)
    return up, mask_of


def verify_congruence(n: int, limit: int = ENUMERATION_LIMIT) -> tuple[CheckResult, ...]:
    """Exhaustively check, for size ``n``, that the fibers of the
    first-inversion tree map are weak-order intervals with pattern-
    avoiding extremes, by parts (i) and (ii) of the module docstring,
    that both interval projections are monotone on weak-order covers, and
    that each fiber's size is its tree's hook count, the counts summing
    to (n - 1)!.  Returns the four results in that order:
    ``fiber-interval``, ``upper-projection-monotone``,
    ``lower-projection-monotone`` and ``fiber-hook-count``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > limit:
        raise ValueError(f"congruence check for n = {n} exceeds the limit {limit}")

    perms = list(enumerate_fixing_one(n))
    up, mask_of = _covers_by_rank(perms)

    fibers: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(perms):
        fibers.setdefault(_first_inversions(p), []).append(i)  # p comes from enumerate_fixing_one

    interval_bad: list[str] = []
    hook_bad: list[str] = []
    hook_total = 0
    top_of, bottom_of = [0] * len(perms), [0] * len(perms)
    fiber_of: list[tuple | None] = [None] * len(perms)  # (table, bottom, top), one object per fiber
    for fif, members in fibers.items():
        hooks = _hook_count(fif)
        hook_total += hooks
        if hooks != len(members):
            hook_bad.append(f"fiber {fif} has {len(members)} members, hook count {hooks}")
        top, bottom = _extremes(fif)
        masks = {perms[i]: mask_of[i] for i in members}
        if top not in masks or bottom not in masks:
            interval_bad.append(f"extremes escape fiber {fif}")
            continue
        tm, bm = masks[top], masks[bottom]
        if not avoids(top, 213):
            interval_bad.append(f"top {top} contains 213")
        if not avoids(bottom, 312):
            interval_bad.append(f"bottom {bottom} contains 312")
        outside = [p for p, mask in masks.items() if bm & ~mask or mask & ~tm]  # part (i)
        if outside:
            interval_bad.append(f"fiber {fif} is not the interval [{bottom}, {top}] at {outside[0]}")
        named = (fif, bottom, top)
        for i in members:
            top_of[i], bottom_of[i], fiber_of[i] = tm, bm, named

    if hook_total != math.factorial(n - 1):
        hook_bad.append(f"hook counts sum to {hook_total}, not {n - 1}!")

    up_bad: list[str] = []
    down_bad: list[str] = []
    for i, covers in enumerate(up):
        for j in covers:
            if top_of[i] & ~top_of[j] != 0:
                up_bad.append(f"upper projection reverses {perms[i]} <= {perms[j]}")
            if bottom_of[i] & ~bottom_of[j] != 0:
                down_bad.append(f"lower projection reverses {perms[i]} <= {perms[j]}")
            if fiber_of[j] is not fiber_of[i] and mask_of[j] & ~top_of[i] == 0:  # part (ii)
                fif, bottom, top = fiber_of[i]
                interval_bad.append(f"fiber {fif} is not the interval [{bottom}, {top}] at {perms[j]}")

    def result(name: str, bad: list[str]) -> CheckResult:
        if not bad:
            return CheckResult(name, True, f"n={n}")
        return CheckResult(name, False, "; ".join(bad[:3]))

    return (
        result("fiber-interval", interval_bad),
        result("upper-projection-monotone", up_bad),
        result("lower-projection-monotone", down_bad),
        result("fiber-hook-count", hook_bad),
    )
