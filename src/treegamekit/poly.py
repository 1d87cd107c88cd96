"""Dense integer polynomials in q, and the game polynomial of a tree.

The game polynomial of a plane tree with root subtrees T_1..T_m is the
product of the factors (1 + q * poly(T_k)); the single vertex gives 1.
Two further computations of the same polynomial live here: a signed sum
over prunings (one term (-q)^rank * (1+q)^covers per pruning whose game
is lost by the player to move) and a Monte-Carlo estimate of the value
at q in [-1, 0] via the coin-flip event ``event_frequency`` samples.
Agreement of all three is what the test suite leans on.

Nothing here recurses: the product and the pruning profiles are folded
by the walker in ``tree``, and the event scans the preorder numbering,
down for the coins and back up for the event, with all trials of a block
side by side as the bits of Python ints.

A vertex's pruning profiles are a multiset, each distinct triple with
the number of prunings that share it, built one child at a time: every
distinct triple so far is joined with each of the next child's options
(left out, which adds a cover, or one of its distinct triples), and the
counts multiply.  A profile is a triple of small numbers, so a large
subtree has far fewer distinct triples than prunings, and no subtree has
more: the cap on prunings still bounds the work, and ``pruning_profiles``
checks it by counting first, in O(n), before any join runs.

The product route folds coefficient tuples, and ``_times`` does every
general multiplication in it.  When the shorter factor has at most
``SCHOOLBOOK`` terms it multiplies term by term.  Otherwise it uses
Kronecker substitution (von zur Gathen and Gerhard, *Modern Computer
Algebra*; Harvey, J. Symbolic Comput. 2009): each factor is packed into
one integer, coefficient j in bytes w*j to w*j + w - 1, the two integers
are multiplied once by the interpreter's Karatsuba product, and the
product's bytes are sliced back into coefficients.  A product
coefficient adds at most len(shorter) terms a_i * b_j, so it is below
2^(bits(max a) + bits(max b) + bits(len(shorter))); the width w is that
many bits rounded up to whole bytes, and no coefficient reaches the
next.  That holds only for nonnegative coefficients: a negative one
would borrow from its neighbour, and the bytes would no longer be the
coefficients.  Game polynomials have none; ``Poly.__mul__`` stays the
general signed product.

A leaf's phi is 1, so a vertex's k leaves contribute (1 + q)^k, whose
coefficients are the binomial numbers C(k, j).  When a vertex has only
leaves, its polynomial is that row, built by the exact recurrence
C(k, j + 1) = C(k, j) * (k - j) // (j + 1) with no product at all.
Otherwise the factors (1, *phi_k) of its other children are multiplied
in pairs, level by level, so that products have balanced lengths (where
the packing pays) rather than a growing factor times short ones; the
result is then multiplied by 1 + q once per leaf, each time added to
itself shifted one place up, which ``map`` does in C.

``SCHOOLBOOK`` = 16 is measured, with ``game_polynomial`` alone on the
trees of the benchmark's ``big-trees`` and ``small-queries`` workloads:
8 and 32 do no better, and 2 and 4 do worse (the timings are in
CHANGES.md).

Text form is ascending with explicit carets, e.g. ``1 + 2*q + 3*q^2``;
JSON form is the ascending coefficient list.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterable

from .tree import PlaneTree, _fold, index_tree, vertex_count

MATERIALIZE_LIMIT = 20
SCHOOLBOOK = 16  # longest shorter factor multiplied term by term; measured, see above
EVENT_DELTA = 1e-9
EVENT_BLOCK_BITS = 1 << 24  # vertices x lanes per block of event_frequency

Profiles = dict[tuple[int, int, bool], int]  # (rank, covers, mover_loses) -> prunings


class Poly:
    """An integer polynomial stored as an ascending coefficient tuple
    with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def __call__(self, x):
        """Horner's rule.  At a Fraction a/b of degree d the pass runs in
        integers, summing c_j * a^j * b^(d-j), and one Fraction divides
        by b^d at the end: one gcd instead of one per coefficient."""
        if not (isinstance(x, Fraction) and self.coeffs):
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * scale
            scale *= b
        return Fraction(acc, scale // b)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                qpart = "q" if d == 1 else f"q^{d}"
                body = qpart if abs(c) == 1 else f"{abs(c)}*{qpart}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ZERO = Poly()
ONE = Poly((1,))
Q = Poly((0, 1))


def _times(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two nonempty coefficient tuples with nonnegative
    entries: term by term when the shorter has at most ``SCHOOLBOOK``
    terms, otherwise by Kronecker substitution (see the module docstring)."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= SCHOOLBOOK:
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return tuple(out)
    width = (max(a).bit_length() + max(b).bit_length() + len(a).bit_length() + 7) // 8
    pack = lambda f: int.from_bytes(b"".join(c.to_bytes(width, "little") for c in f), "little")
    digits = (pack(a) * pack(b)).to_bytes(width * (len(a) + len(b) - 1), "little")
    return tuple(int.from_bytes(digits[i : i + width], "little") for i in range(0, len(digits), width))


def _product(node: PlaneTree, phis: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The factors (1, *phi) of the children that are not leaves multiplied
    pairwise, level by level, then 1 + q once per leaf by a shift-add; with
    no such factor, the leaves' (1 + q)^k as the binomial row C(k, 0..k)."""
    factors = [(1, *phi) for phi in phis if len(phi) > 1]
    leaves = len(phis) - len(factors)
    if not factors:
        row = [1]
        for j in range(leaves):
            row.append(row[j] * (leaves - j) // (j + 1))
        return tuple(row)
    while len(factors) > 1:
        paired = [_times(a, b) for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[2 * len(paired) :]
    out = factors[0]
    for _ in range(leaves):
        out = tuple(map(add, chain(out, (0,)), chain((0,), out)))
    return out


def game_polynomial(t: PlaneTree) -> Poly:
    """Product over root subtrees, folded bottom up; each factor 1 + q*phi
    is phi's coefficients shifted up one place after a constant 1.

    >>> str(game_polynomial(((), ())))
    '1 + 2*q + q^2'
    """
    return Poly(_fold(t, iter, _product))


def _pruning_count(node: PlaneTree, counts: list[int]) -> int:
    """A subtree's pruning count; refused past 2^(MATERIALIZE_LIMIT - 1)."""
    count = 1
    for c in counts:
        count *= 1 + c
        if count > 1 << (MATERIALIZE_LIMIT - 1):
            raise ValueError(
                f"a subtree has at least {count} prunings, over the cap of 2^{MATERIALIZE_LIMIT - 1}"
            )
    return count


def _profiles(node: PlaneTree, child_profiles: list[Profiles]) -> Profiles:
    """The node's profile multiset, joined one child at a time (see the
    module docstring)."""
    out = {(0, 0, True): 1}
    for ps in child_profiles:
        joined: Profiles = {}
        for (r, c, lost), k in out.items():
            # a child left out adds a cover; a child's pruning adds its vertices and covers
            joined[r, c + 1, lost] = joined.get((r, c + 1, lost), 0) + k
            for (r2, c2, lost2), k2 in ps.items():
                key = (r + r2 + 1, c + c2, lost and not lost2)
                joined[key] = joined.get(key, 0) + k * k2
        out = joined
    return out


def pruning_profiles(t: PlaneTree) -> Profiles:
    """How many prunings of ``t`` (the root plus a parent-closed vertex
    set) share each ``(rank, covers, mover_loses)`` triple.  Rank counts
    the pruning's non-root vertices, covers counts the vertices just
    outside it whose parent lies inside, and ``mover_loses`` says the
    pruning, played as its own game tree, is lost by the player to move.

    Refuses a tree, or subtree, with more than 2^(MATERIALIZE_LIMIT - 1)
    prunings, the most that a materializable lattice (a star with
    MATERIALIZE_LIMIT vertices) has, by a counting pass that checks each
    running product after every child, before any profile is joined; the
    pass runs in postorder and names the first subtree it refuses."""
    _fold(t, iter, _pruning_count)
    return _fold(t, iter, _profiles)


def game_polynomial_from_prunings(t: PlaneTree) -> Poly:
    """Signed pruning sum: (-q)^rank * (1+q)^covers over the prunings
    whose game the mover loses.  Agrees with ``game_polynomial``."""
    coeffs = [0] * vertex_count(t)
    for (rank, covers, loses), mult in pruning_profiles(t).items():
        if loses:
            sign = -1 if rank % 2 else 1
            for j in range(covers + 1):
                coeffs[rank + j] += sign * mult * math.comb(covers, j)
    return Poly(coeffs)


def _below(draw, lanes: int, width: int, num: int, bits: int) -> int:
    """The lanes set in ``lanes`` whose uniform number U = 0.u1u2..., read
    one bit per lane per ``draw(width)``, lies below p = num / 2^bits: an
    exact Bernoulli(p) draw per lane.  A lane is settled at its first bit
    that differs from p's; the draws stop once every lane is, or once p has
    no set bit left, when the lanes still open share p's prefix and so are
    not below it."""
    if num >> bits:  # p = 1
        return lanes
    below = 0
    for k in range(bits - 1, -1, -1):
        u = draw(width) & lanes
        if num >> k & 1:
            below |= lanes & ~u  # p's bit is 1 and the lane's is 0
            lanes = u
        else:
            lanes &= ~u  # the lane's bit is 1 and p's is 0: above p
        if not lanes:
            break
    return below


def event_frequency(t: PlaneTree, q, trials: int = 100_000, seed: int = 0) -> float:
    """Empirical frequency of the coin-flip event whose probability is
    the game polynomial at ``q``.

    Starting at the root, one coin is flipped per child of each visited
    vertex (heads with probability -q, so q must lie in [-1, 0]); heads
    visits the child.  The event holds when no visited child's own event
    holds, evaluated bottom up over the visited set.

    The trials run side by side, one per bit ("lane") of a Python int.
    In preorder, the lanes visiting a vertex are its parent's lanes whose
    coin, drawn exactly by ``_below``, comes up heads; a subtree that no
    lane visits is skipped.  Then, in reverse preorder, a vertex's event
    holds on the lanes where no visited child's does.  Lanes go in blocks
    of at most ``EVENT_BLOCK_BITS`` // vertices, so a block's two tables
    of masks hold about 2 * ``EVENT_BLOCK_BITS`` = 2^25 bits (4 MiB),
    however many the trials.
    """
    if not -1 <= q <= 0:  # before float(), which overflows on a huge Fraction
        raise ValueError(f"q must lie in [-1, 0], got {q}")
    heads = float(-q)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    draw = random.Random(seed).getrandbits
    num, den = heads.as_integer_ratio()
    bits = den.bit_length() - 1
    children = index_tree(t)
    n = len(children)
    parent = [0] * n
    for u, kids in enumerate(children):
        for c in kids:
            parent[c] = u
    size = [1] * n
    for v in range(n - 1, 0, -1):
        size[parent[v]] += size[v]
    block = max(1, EVENT_BLOCK_BITS // n)
    hits = 0
    for first in range(0, trials, block):
        width = min(block, trials - first)
        visits = [0] * n
        visits[0] = (1 << width) - 1
        v = 1
        while v < n:
            visits[v] = _below(draw, visits[parent[v]], width, num, bits)
            v += 1 if visits[v] else size[v]
        spoiled = [0] * n  # lanes where some visited child's event holds
        for v in range(n - 1, 0, -1):
            if visits[v]:
                spoiled[parent[v]] |= visits[v] & ~spoiled[v]
        hits += width - spoiled[0].bit_count()
    return hits / trials


def event_tolerance(trials: int) -> float:
    """How far ``event_frequency`` over ``trials`` trials may stray from
    the exact value: by Hoeffding's inequality it strays further with
    probability at most ``EVENT_DELTA``, for epsilon =
    sqrt(ln(2/delta) / 2N).

    >>> round(event_tolerance(20_000), 4)
    0.0231
    """
    return math.sqrt(math.log(2 / EVENT_DELTA) / (2 * trials))
