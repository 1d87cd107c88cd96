"""The Tamari lattice as a quotient of the weak order on permutations
fixing 1.

Elements are keyed by first-inversion tables (equivalently plane trees,
via the postorder parent reading).  The fiber of a tree consists of all
permutations whose first-inversion tree has that shape; each fiber is a
weak-order interval whose top avoids 213 and whose bottom avoids 312.
Join is the pointwise minimum of tables; meet takes, argument by
argument, the smallest common member of the two forward orbits.
``verify_congruence`` checks the interval property and that both
projections (fiber top and fiber bottom) preserve weak order.  Weak
order is the transitive closure of its covers, so the projections are
checked on covers only; its intervals are connected under covers, so
each fiber is compared with an upward cover search from its bottom,
bounded by its top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .perm import (
    Perm,
    avoids,
    check_first_inversions,
    enumerate_fixing_one,
    first_inversion_orbit,
    first_inversions,
)
from .report import CheckResult, render_lines, results_json
from .tree import (
    PlaneTree,
    eastpush_labeling,
    fif_from_tree,
    first_inversion_tree,
    perm_from_increasing_tree,
    plane_shape,
    tree_from_first_inversions,
    vertex_count,
    westpop_labeling,
)

ENUMERATION_LIMIT = 8


@dataclass(frozen=True)
class TamariElement:
    """One lattice element: a first-inversion table with its plane tree."""

    fif: tuple[int, ...]
    tree: PlaneTree = field(compare=False)

    @classmethod
    def from_fif(cls, fif: Sequence[int]) -> "TamariElement":
        fif = check_first_inversions(fif)
        return cls(fif, tree_from_first_inversions(fif))

    @classmethod
    def from_tree(cls, tree: PlaneTree) -> "TamariElement":
        return cls(fif_from_tree(tree), tree)

    @classmethod
    def from_permutation(cls, p: Sequence[int]) -> "TamariElement":
        return cls.from_fif(first_inversions(p))

    @property
    def size(self) -> int:
        return len(self.fif)


@lru_cache(maxsize=None)
def _orbits(fif: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(first_inversion_orbit(fif, i)) for i in range(2, len(fif) + 2))


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
    orbits (both orbits end at the sentinel, so a common value exists)."""
    if a.size != b.size:
        raise ValueError("elements must have the same size")
    n = a.size
    oa = _orbits(a.fif)
    ob = _orbits(b.fif)
    merged = tuple(min(oa[i - 2] & ob[i - 2]) for i in range(2, n + 1)) + (n + 1,)
    try:
        return TamariElement.from_fif(merged)
    except ValueError as exc:
        raise RuntimeError(f"orbit meet left the lattice: {exc}") from exc


def tamari_leq(a: TamariElement, b: TamariElement) -> bool:
    return tamari_join(a, b) == b


@dataclass(frozen=True)
class Fiber:
    """All permutations whose first-inversion tree has a given shape."""

    tree: PlaneTree
    members: tuple[Perm, ...]
    top: Perm
    bottom: Perm


def fiber(tree: PlaneTree, limit: int = ENUMERATION_LIMIT) -> Fiber:
    """Materialize a fiber by scanning all permutations of the right
    size; the top and bottom come from the two stack labelings."""
    n = vertex_count(tree)
    if n > limit:
        raise ValueError(f"fiber enumeration for {n} vertices exceeds the limit {limit}")
    top = perm_from_increasing_tree(eastpush_labeling(tree))
    bottom = perm_from_increasing_tree(westpop_labeling(tree))
    members = tuple(
        p for p in enumerate_fixing_one(n) if plane_shape(first_inversion_tree(p)) == tree
    )
    if top not in members or bottom not in members:
        raise AssertionError("stack labelings must land in their own fiber")
    return Fiber(tree, members, top, bottom)


# ---------------------------------------------------------------------------
# congruence verification


@dataclass(frozen=True)
class CongruenceReport:
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_lines(self) -> list[str]:
        return render_lines(self.checks)

    def to_json(self) -> dict:
        return {"n": self.n, "ok": self.ok, "checks": results_json(self.checks)}


def _inversion_mask(p: Perm, pair_index: dict[tuple[int, int], int]) -> int:
    mask = 0
    n = len(p)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if p[i - 1] > p[j - 1]:
                mask |= 1 << pair_index[i, j]
    return mask


def _up_covers(p: Perm) -> list[Perm]:
    """The weak-order up-covers of ``p`` among permutations fixing 1.

    For each k in 2..n-1 standing left of k + 1, swap the two values.
    The swap adds exactly the inversion of their two positions (every
    other value compares alike with k and k + 1) and never moves the 1.
    """
    where = {v: i for i, v in enumerate(p)}
    out = []
    for k in range(2, len(p)):
        i, j = where[k], where[k + 1]
        if i < j:
            q = list(p)
            q[i], q[j] = k + 1, k
            out.append(tuple(q))
    return out


def verify_congruence(n: int, limit: int = ENUMERATION_LIMIT) -> CongruenceReport:
    """Exhaustively check, for size ``n``, that the fibers of the
    first-inversion tree map are weak-order intervals with pattern-
    avoiding extremes and that both interval projections are monotone,
    walking weak-order covers as the module docstring describes."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > limit:
        raise ValueError(f"congruence check for n = {n} exceeds the limit {limit}")

    perms = list(enumerate_fixing_one(n))
    index = {p: i for i, p in enumerate(perms)}
    pair_index = {pair: k for k, pair in enumerate(itertools.combinations(range(1, n + 1), 2))}
    mask_of = [_inversion_mask(p, pair_index) for p in perms]
    up = [[index[q] for q in _up_covers(p)] for p in perms]

    fibers: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(perms):
        fibers.setdefault(first_inversions(p), []).append(i)

    interval_bad: list[str] = []
    top_of = [0] * len(perms)
    bottom_of = [0] * len(perms)
    for fif, members in fibers.items():
        tree = tree_from_first_inversions(fif)
        top = perm_from_increasing_tree(eastpush_labeling(tree))
        bottom = perm_from_increasing_tree(westpop_labeling(tree))
        member_set = set(members)
        if index.get(top) not in member_set or index.get(bottom) not in member_set:
            interval_bad.append(f"extremes escape fiber {fif}")
            continue
        tm, bm = mask_of[index[top]], mask_of[index[bottom]]
        if not avoids(top, 213):
            interval_bad.append(f"top {top} contains 213")
        if not avoids(bottom, 312):
            interval_bad.append(f"bottom {bottom} contains 312")
        reached = {index[bottom]} if bm & ~tm == 0 else set()
        stack = list(reached)
        while stack:
            for j in up[stack.pop()]:
                if j not in reached and mask_of[j] & ~tm == 0:
                    reached.add(j)
                    stack.append(j)
        if reached != member_set:
            p = perms[min(reached ^ member_set)]
            interval_bad.append(f"fiber {fif} is not the interval [{bottom}, {top}] at {p}")
        for i in members:
            top_of[i] = tm
            bottom_of[i] = bm

    up_bad: list[str] = []
    down_bad: list[str] = []
    for i, covers in enumerate(up):
        for j in covers:
            if top_of[i] & ~top_of[j] != 0:
                up_bad.append(f"upper projection reverses {perms[i]} <= {perms[j]}")
            if bottom_of[i] & ~bottom_of[j] != 0:
                down_bad.append(f"lower projection reverses {perms[i]} <= {perms[j]}")

    def result(name: str, bad: list[str]) -> CheckResult:
        if not bad:
            return CheckResult(name, True, f"n={n}")
        return CheckResult(name, False, "; ".join(bad[:3]))

    return CongruenceReport(
        n,
        (
            result("fiber-interval", interval_bad),
            result("upper-projection-monotone", up_bad),
            result("lower-projection-monotone", down_bad),
        ),
    )
