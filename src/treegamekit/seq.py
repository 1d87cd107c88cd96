"""Five independent computations of one integer sequence.

The sequence counts increasing trees on n vertices whose pruning game is
a second-player win.  It starts 1, 0, 1, 1, 8, 26, 194 and is computed
here by

* an alternating sum of unsigned Stirling numbers of the first kind,
* exact series extraction from the exponential generating function
  log(1 - log(1 - x)), by the powers of -log(1 - x),
* a census of the (n-1)! increasing trees, counted label by label by
  what the game can see of them (see ``game``),
* a recurrence splitting a tree at the subtree containing the top label,
* a complementary recurrence for the first-player counts.

The separator weights (k-1)! * c(n, k) are listed in one place,
``_separator_weights``: the Stirling route and ``census_by_stirling_sum``
take their alternating sum, and ``separator_weight_polynomial`` has them
as its coefficients, so its value at q = -1 is the same sum.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable

from . import game, poly


def _stirling_rows(n_max: int):
    """Rows 0..n_max of c(n, k), each built from the one before by
    c(m, k) = c(m-1, k-1) + (m-1) * c(m-1, k); only the latest is held."""
    row = (1,)
    yield row
    for m in range(1, n_max + 1):
        row = (0, *(a + (m - 1) * b for a, b in zip(row, (*row[1:], 0))))
        yield row


def _stirling_row(n: int) -> tuple[int, ...]:
    """Row n of c(n, k), built from row 0 in O(n^2) steps."""
    for row in _stirling_rows(n):
        pass
    return row


def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind, c(n, k): permutations
    of n letters with k cycles.  Each call builds row n afresh, in O(n^2)
    steps; a caller who needs many entries takes the row, ``_stirling_row``,
    or many rows in one pass, ``_stirling_rows``.

    >>> stirling_first(6, 3)
    225
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k = {k}")
    return _stirling_row(n)[k]


def _separator_weights(row: tuple[int, ...]) -> list[int]:
    """(k-1)! * c(n, k) for k = 1..n, from row n of c(n, k)."""
    factorials = itertools.accumulate(range(1, len(row) - 1), operator.mul, initial=1)  # (k-1)!
    return [f * c for f, c in zip(factorials, row[1:])]


def census_by_stirling_sum(n: int) -> int:
    """Alternating sum (-1)^(k-1) * (k-1)! * c(n, k) over k = 1..n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    weights = _separator_weights(_stirling_row(n))
    return sum(weights[::2]) - sum(weights[1::2])


def census_by_egf(n_max: int) -> list[int]:
    """Coefficients n! [x^n] log(1 - log(1 - x)) for n = 1..n_max, in exact
    rationals.  With f = -log(1 - x), the sum of x^k / k, log(1 + f) is the
    sum of (-1)^(m-1) f^m / m over m >= 1 (Mercator's series), and f^m
    starts at x^m, so the powers f^1..f^n_max, truncated past x^n_max and
    each the one before times f, give every coefficient: O(n^3)
    operations, sharing no recurrence with the other routes.  With L the
    lcm of 1..n_max, L f has integer coefficients, so each power is kept
    as the integers of L^m f^m and only the sum is in ``Fraction``s."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    lcm = math.lcm(*range(1, n_max + 1))
    f = [0] + [lcm // k for k in range(1, n_max + 1)]  # L f by exponent
    g = [Fraction(0)] * (n_max + 1)
    power, scale = f, lcm  # L^m f^m by exponent, zero below x^m, and L^m
    for m in range(1, n_max + 1):
        for i in range(m, n_max + 1):
            g[i] += Fraction(power[i] if m % 2 else -power[i], m * scale)
        power = [0] * (m + 1) + [sum(power[j] * f[i - j] for j in range(m, i)) for i in range(m + 1, n_max + 1)]
        scale *= lcm
    out = []
    factorial = 1
    for n in range(1, n_max + 1):
        factorial *= n
        value = g[n] * factorial
        if value.denominator != 1:
            raise ArithmeticError(f"coefficient at x^{n} is not integral: {value}")
        out.append(int(value))
    return out


def census_by_split_recurrence(n_max: int) -> list[int]:
    """a_1 = 1 and, for n >= 2,
    a_n = sum over k of C(n-2, k-1) * ((k-1)! - a_k) * a_{n-k}:
    split at the root subtree holding the largest label."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    out = [1]
    for n in range(2, n_max + 1):
        total = 0
        for k in range(1, n):
            total += math.comb(n - 2, k - 1) * (math.factorial(k - 1) - out[k - 1]) * out[n - k - 1]
        out.append(total)
    return out


def census_by_complement_recurrence(n_max: int) -> list[int]:
    """(n-1)! - a_n = sum over k of C(n-1, k-1) * (n-k-1)! * a_k, read as
    a count of the first-player wins."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    out: list[int] = []
    for n in range(1, n_max + 1):
        rhs = sum(
            math.comb(n - 1, k - 1) * math.factorial(n - k - 1) * out[k - 1]
            for k in range(1, n)
        )
        out.append(math.factorial(n - 1) - rhs)
    return out


# each route by name, as (n_max, census_limit) -> values for n = 1..n_max;
# only the census route reads its limit
METHODS: dict[str, Callable[[int, int], list[int]]] = {
    "stirling": lambda n_max, census_limit: [
        sum(w[::2]) - sum(w[1::2]) for w in map(_separator_weights, _stirling_rows(n_max))
    ][1:],
    "egf": lambda n_max, census_limit: census_by_egf(n_max),
    "census": lambda n_max, census_limit: [
        game.census_second_player_wins(n, limit=census_limit) for n in range(1, n_max + 1)
    ],
    "split": lambda n_max, census_limit: census_by_split_recurrence(n_max),
    "complement": lambda n_max, census_limit: census_by_complement_recurrence(n_max),
}


def census_table(n_max: int, census_limit: int = game.CENSUS_LIMIT) -> dict[str, list[int]]:
    """Values 1..n_max for every method, keyed by method name."""
    return {name: route(n_max, census_limit) for name, route in METHODS.items()}


def separator_weight_polynomial(n: int) -> poly.Poly:
    """Sum of q^(separator count) over all valid separator placements of
    permutations of {1..n} fixing 1; coefficient k-1 is (k-1)! * c(n, k).

    >>> str(separator_weight_polynomial(3))
    '2 + 3*q + 2*q^2'
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return poly.Poly(_separator_weights(_stirling_row(n)))
