"""Cell-level geometry of a plane tree, read off its game polynomial phi.

A tree's pruning lattice doubles as the face poset of a cell complex:
one cell per pruning, of dimension its rank, with closure order the
pruning order (mask containment in ``PruningLattice``).  Counting points
over a finite field with q elements then gives phi(q), the compactly
supported real Euler characteristic is phi(-1) (0 or 1, matching the
game winner), the complex one is phi(1) (the number of cells), and
even-degree Poincare polynomials come from substituting q^2.  Each
function takes phi, so a caller computes it once per tree.
"""

from __future__ import annotations

import math
import warnings

from .poly import Poly


# Miller-Rabin to the prime bases 2..41 is exact below MR_PROVEN_BELOW
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017); past it, passing every base proves nothing.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981


def point_count(phi: Poly, q: int, strict: bool = False) -> int:
    """Evaluate the game polynomial ``phi`` at an integer q >= 2.  Only prime
    powers are honest field sizes: other q, or q that ``is_prime_power`` cannot
    certify, raise when ``strict`` and warn otherwise (the value is phi(q))."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field size must be an integer >= 2, got {q}")
    certified = is_prime_power(q)
    if certified is None:
        if strict:
            raise ValueError(f"cannot certify that {q} is a prime power: "
                             f"the primality test is proven only below {MR_PROVEN_BELOW}")
        warnings.warn(f"{q} could not be certified as a prime power; value is a polynomial evaluation")
    elif not certified:
        if strict:
            raise ValueError(f"{q} is not a prime power")
        warnings.warn(f"{q} is not a prime power; value is a polynomial evaluation, not a point count")
    return phi(q)


def is_prime_power(q: int) -> bool | None:
    """Whether q is p^k for a prime p; None when that cannot be certified.
    Once the primes to 41 are divided out, q is taken to its exact k-th root
    for each prime k that has one, k again after every success, so that
    q = r^6 falls to k = 2 and then k = 3; Miller-Rabin then tells whether
    the last root is prime: to every base in ``MR_BASES`` below
    ``MR_PROVEN_BELOW``, and past it to base 2 alone, since there passing
    proves nothing and failing still does.

    >>> is_prime_power(1_000_000_000_000_000_003), is_prime_power(12), is_prime_power(2**89 - 1)
    (True, False, None)
    """
    if q < 2:
        return False
    for b in MR_BASES:
        if q % b == 0:
            while q % b == 0:
                q //= b
            return q == 1
    k = 2
    while k <= q.bit_length() // 5:  # prime factors now exceed 2^5, so r^k = q needs 5k < log2 q
        r = _integer_root(q, k)
        if r**k == q:
            q = r
            continue
        k += 1
        while any(k % d == 0 for d in range(2, math.isqrt(k) + 1)):
            k += 1
    if q < MR_PROVEN_BELOW:
        return _passes_miller_rabin(q, MR_BASES)
    return None if _passes_miller_rabin(q, MR_BASES[:1]) else False


def _integer_root(q: int, k: int) -> int:
    """The integer part of q^(1/k).  Newton's method falls to it from any
    start above it, but from below it can stop short, so it starts from
    2^(log2(q) / k) with the exponent raised past the float's error."""
    if k == 2:
        return math.isqrt(q)
    e = math.log2(q) * (1 + 2**-40) / k
    shift = max(int(e) - 52, 0)
    x = (int(2 ** (e - shift)) + 1) << shift
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _passes_miller_rabin(r: int, bases: tuple[int, ...]) -> bool:
    """False when one of ``bases`` witnesses that r, odd and over 41, is composite."""
    s = ((r - 1) & (1 - r)).bit_length() - 1  # r - 1 = d * 2^s with d odd
    for a in bases:
        x = pow(a, (r - 1) >> s, r)
        if x == 1:
            continue
        for _ in range(s):
            if x == r - 1:
                break
            x = x * x % r
        else:
            return False
    return True


def euler_characteristic_real(phi: Poly) -> int:
    """Game polynomial at -1; always 0 or 1."""
    return phi(-1)


def euler_characteristic_complex(phi: Poly) -> int:
    """Game polynomial at 1, i.e. the total number of cells."""
    return phi(1)


def poincare_polynomial(phi: Poly) -> Poly:
    """The game polynomial with q replaced by q^2 (cells contribute only
    in even degrees)."""
    coeffs = [0] * (2 * len(phi.coeffs))
    coeffs[::2] = phi.coeffs
    return Poly(coeffs)
