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
flipping coins in the order a depth-first walk would.

Text form is ascending with explicit carets, e.g. ``1 + 2*q + 3*q^2``;
JSON form is the ascending coefficient list.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from typing import Iterable

from .tree import PlaneTree, _fold, index_tree, vertex_count

MATERIALIZE_LIMIT = 20
EVENT_DELTA = 1e-9


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

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

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
        if a == (1,):
            return other
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def substitute_q_squared(self) -> "Poly":
        out = [0] * (2 * len(self.coeffs))
        for d, c in enumerate(self.coeffs):
            out[2 * d] = c
        return Poly(out)

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


def game_polynomial(t: PlaneTree) -> Poly:
    """Product over root subtrees, folded bottom up; each factor 1 + q*phi
    is phi's coefficients shifted up one place after a constant 1.

    >>> str(game_polynomial(((), ())))
    '1 + 2*q + q^2'
    """
    return _fold(t, iter, lambda node, phis: math.prod((Poly((1, *phi.coeffs)) for phi in phis), start=ONE))


def _pruning_count(node: PlaneTree, counts: list[int]) -> int:
    """A subtree's pruning count; refused past 2^(MATERIALIZE_LIMIT - 1)."""
    count = 1
    for c in counts:
        count *= 1 + c
        if count > 1 << (MATERIALIZE_LIMIT - 1):
            raise ValueError(
                f"a subtree has at least {count} prunings; profiles are listed only up to 2^{MATERIALIZE_LIMIT - 1}"
            )
    return count


def _profiles(node: PlaneTree, child_profiles: list[list[tuple[int, int, bool]]]) -> list[tuple[int, int, bool]]:
    if not child_profiles:
        return [(0, 0, True)]
    # a child left out adds a cover; a child's pruning adds its vertices and covers
    options = [((0, 1, False), *((r + 1, c, lost) for r, c, lost in ps)) for ps in child_profiles]
    child_profiles.clear()  # the walker would hold them through the product
    out = []
    for combo in itertools.product(*options):
        rank = covers = 0
        loses = True
        for r, c, child_loses in combo:
            rank += r
            covers += c
            if child_loses:
                loses = False
        out.append((rank, covers, loses))
    return out


def pruning_profiles(t: PlaneTree) -> list[tuple[int, int, bool]]:
    """One ``(rank, covers, mover_loses)`` triple for every pruning of
    ``t`` (the root plus a parent-closed vertex set).  Rank counts the
    pruning's non-root vertices, covers counts the vertices just outside
    it whose parent lies inside, and ``mover_loses`` says the pruning,
    played as its own game tree, is lost by the player to move.

    Refuses a tree, or subtree, with more than 2^(MATERIALIZE_LIMIT - 1)
    prunings, the most that a materializable lattice (a star with
    MATERIALIZE_LIMIT vertices) has, by a counting pass that checks each
    running product after every child, before anything is listed; the
    pass runs in postorder and names the first subtree it refuses."""
    _fold(t, iter, _pruning_count)
    return _fold(t, iter, _profiles)


def game_polynomial_from_prunings(t: PlaneTree) -> Poly:
    """Signed pruning sum: (-q)^rank * (1+q)^covers over the prunings
    whose game the mover loses.  Agrees with ``game_polynomial``."""
    counts: Counter[tuple[int, int]] = Counter()
    for rank, covers, loses in pruning_profiles(t):
        if loses:
            counts[rank, covers] += 1
    coeffs = [0] * vertex_count(t)
    for (rank, covers), mult in counts.items():
        sign = -1 if rank % 2 else 1
        for j in range(covers + 1):
            coeffs[rank + j] += sign * mult * math.comb(covers, j)
    return Poly(coeffs)


def event_frequency(t: PlaneTree, q, trials: int = 100_000, seed: int = 0) -> float:
    """Empirical frequency of the coin-flip event whose probability is
    the game polynomial at ``q``.

    Starting at the root, one coin is flipped per child of each visited
    vertex (heads with probability -q, so q must lie in [-1, 0]); heads
    visits the child.  The event holds when no visited child's own event
    holds, evaluated bottom up over the visited set.
    """
    heads = float(-q)
    if not 0.0 <= heads <= 1.0:
        raise ValueError(f"q must lie in [-1, 0], got {q}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rand = random.Random(seed).random
    idx = index_tree(t)
    n, parent = len(idx), idx.parent
    size = [1] * n
    for v in range(n - 1, 0, -1):
        size[parent[v]] += size[v]
    hits = 0
    for _ in range(trials):
        visited = []  # coins in preorder; tails skips the whole subtree
        v = 1
        while v < n:
            if rand() < heads:
                visited.append(v)
                v += 1
            else:
                v += size[v]
        spoiled = set()  # parents of visited vertices whose event holds
        for u in reversed(visited):
            if u not in spoiled:
                spoiled.add(parent[u])
        hits += 0 not in spoiled
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
