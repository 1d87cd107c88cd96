"""Permutations of {1..n} that fix 1, and their inversion combinatorics.

A permutation is a plain tuple in one-line notation, with positions and
values both 1-based: ``p[i - 1]`` is the value at position ``i``.  The
text form is comma-separated with no spaces, e.g. ``1,6,2,3,5,7,4``.

The first-inversion table ``t`` of a permutation of size ``n`` records,
for each position ``i``, the nearest later position holding a smaller
value, with sentinel ``n + 1`` when every later value is larger.  Only
arguments ``2..n+1`` matter (position 1 holds the value 1 here, so it is
never the top of an inversion), and the table is stored as a tuple of
length ``n`` with ``t[i - 2]`` giving ``t(i)``; the final entry, the
argument ``n + 1``, is always the sentinel.  Tables arising this way are
exactly the non-crossing parent tables of plane trees read in postorder,
which is what ties this module to ``tree`` and ``tamari``.

Avoidance of 312 and 213 is decided by one stack pass, in O(n): a
permutation avoids 312 exactly when a stack fed 1..n can output it
(Knuth, TAOCP vol. 1, 2.2.1, ex. 5), and 213 exactly when its reverse
avoids 312.

Separator placements split a permutation into consecutive blocks.  A
placement is valid when every block starts with its minimum, it is
signed by parity of the separator count, and the signed totals over all
placements of all permutations fixing 1 reproduce the census numbers of
``seq``.  They are generated directly, by one left-to-right scan in
which each position starts a new block or joins the open block when its
value exceeds the block's first.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

Perm = tuple[int, ...]

PATTERNS = (213, 312)


def check_permutation(values: Sequence[int]) -> Perm:
    """Return ``values`` as a tuple, or raise ValueError if it is not a
    permutation of {1..n}."""
    p = tuple(values)
    n = len(p)
    if n == 0:
        raise ValueError("empty permutation")
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p}")
    return p


def check_fixes_one(values: Sequence[int]) -> Perm:
    p = check_permutation(values)
    if p[0] != 1:
        raise ValueError(f"permutation must fix 1 (got value {p[0]} at position 1)")
    return p


def parse_permutation(text: str) -> Perm:
    return check_permutation(_parse_integers(text))


def _parse_integers(text: str) -> tuple[int, ...]:
    """The comma-separated integers of ``text``, not yet checked to be a
    permutation."""
    parts = text.split(",")
    try:
        return tuple(map(int, map(str.strip, parts)))
    except ValueError:  # name the first bad entry: the loop below meets it and raises
        pass
    for k, part in enumerate(parts):
        part = part.strip()
        if not part:
            raise ValueError(f"empty entry at index {k} in permutation text {text!r}")
        try:
            int(part)
        except ValueError:
            raise ValueError(f"bad integer {part!r} at index {k} in permutation text") from None


def format_permutation(p: Sequence[int]) -> str:
    return ",".join(map(str, p))


def inversions(p: Sequence[int]) -> frozenset[tuple[int, int]]:
    """All position pairs (i, j) with i < j and p(i) > p(j), 1-based.

    >>> sorted(inversions((1, 3, 2)))
    [(2, 3)]
    """
    p = check_permutation(p)
    n = len(p)
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if p[i - 1] > p[j - 1]
    )


def first_inversions(p: Sequence[int]) -> tuple[int, ...]:
    """The first-inversion table of ``p``: entry ``i - 2`` is the least
    position ``j > i`` with a smaller value, or the sentinel ``n + 1``.

    >>> first_inversions((1, 6, 2, 3, 5, 7, 4))
    (3, 8, 8, 7, 7, 8, 8)
    """
    return _first_inversions(check_fixes_one(p))


def _first_inversions(p: Perm) -> tuple[int, ...]:
    """``first_inversions`` of a tuple already known to be a permutation
    fixing 1, unchecked."""
    n = len(p)
    out = [n + 1] * n
    later: list[int] = []  # positions right of i, values rising up the stack
    for i in range(n, 1, -1):
        while later and p[later[-1] - 1] > p[i - 1]:
            later.pop()
        if later:
            out[i - 2] = later[-1]
        later.append(i)
    return tuple(out)


def check_first_inversions(t: Sequence[int]) -> tuple[int, ...]:
    """Validate a first-inversion table: entries exceed their argument,
    stay within the sentinel, never cross, and the last entry is the
    sentinel itself.  Returns the table as a tuple."""
    t = tuple(t)
    n = len(t)
    if n == 0:
        raise ValueError("empty first-inversion table")
    if t[n - 1] != n + 1:
        raise ValueError(f"entry for argument {n + 1} must be the sentinel {n + 1}, got {t[n - 1]}")
    for i in range(2, n + 1):
        ti = t[i - 2]
        if not i < ti <= n + 1:
            raise ValueError(f"t({i}) = {ti} is outside {i + 1}..{n + 1}")
    # non-crossing: no argument strictly inside (i, t(i)) maps past t(i).  Each
    # i's first suspect is the next larger entry; report the least i, as a scan would.
    crossing = None
    larger: list[int] = []  # arguments right of i, entries falling up the stack
    for i in range(n, 1, -1):
        while larger and t[larger[-1] - 2] <= t[i - 2]:
            larger.pop()
        if larger and larger[-1] < t[i - 2]:
            crossing = i, larger[-1]
        larger.append(i)
    if crossing:
        i, j = crossing
        raise ValueError(f"crossing pair: t({i}) = {t[i - 2]} but t({j}) = {t[j - 2]}")
    return t


def avoids(p: Sequence[int], pattern: int) -> bool:
    """True when no index triple of ``p`` carries the given pattern.

    Pattern 213 looks for i < j < k with p(j) < p(i) < p(k); pattern 312
    looks for p(j) < p(k) < p(i).  Decided by the stack pass of the
    module docstring: values 1..n go on in order, and ``p`` (or, for 213,
    its reverse) must come off the top one value at a time.

    >>> avoids((1, 7, 2, 3, 5, 6, 4), 213)
    True
    >>> avoids((1, 3, 2, 4, 6, 7, 5), 312)
    True
    """
    if pattern not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}, got {pattern}")
    p = check_permutation(p)
    stack: list[int] = []
    pushed = 0  # values 1..pushed have gone onto the stack
    for v in p if pattern == 312 else reversed(p):
        while pushed < v:
            pushed += 1
            stack.append(pushed)
        if stack.pop() != v:
            return False
    return True


def weak_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Right weak order by inversion-set containment."""
    below, above = inversions(a), inversions(b)  # each validates its permutation
    if len(a) != len(b):
        raise ValueError("permutations must have the same size")
    return below <= above


def enumerate_fixing_one(n: int) -> Iterator[Perm]:
    """All permutations of {1..n} fixing 1, in lexicographic order."""
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    for rest in itertools.permutations(range(2, n + 1)):
        yield (1, *rest)


def separator_placements(p: Sequence[int]) -> list[tuple[int, ...]]:
    """All valid separator placements of ``p``, in scan order, each as the
    ascending tuple of positions its blocks start at (a subset of 2..n).
    Its size is the placement's rank, and its parity the placement's sign.

    The scan over positions 2..n carries each partial placement's open
    block's first value, so a position joins that block only when its value
    is larger (the block-minimum rule)."""
    p = check_fixes_one(p)
    partial: list[tuple[tuple[int, ...], int]] = [((), p[0])]  # (cuts, open block's first value)
    for i in range(2, len(p) + 1):
        v = p[i - 1]
        partial = [(cuts + (i,), v) for cuts, _ in partial] + [pair for pair in partial if v > pair[1]]
    return [cuts for cuts, _ in partial]


def _signed_placements(p: Perm) -> int:
    """The signed count of ``p``'s valid placements, by the scan of
    ``separator_placements`` keyed only by the open block's first value:
    a cut before v moves every count to v, sign flipped."""
    signed = {p[0]: 1}
    for v in p[1:]:
        cut = -sum(signed.values())
        signed = {first: count for first, count in signed.items() if first < v}
        signed[v] = cut
    return sum(signed.values())


def signed_placement_total(n: int) -> int:
    """Sum of placement signs over every permutation of {1..n} fixing 1."""
    return sum(_signed_placements(p) for p in enumerate_fixing_one(n))
