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

import warnings

from .poly import Poly


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    for p in range(2, q + 1):
        if p * p > q:
            return True  # q itself is prime
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    return False


def point_count(phi: Poly, q: int, strict: bool = False) -> int:
    """Evaluate the game polynomial ``phi`` at an integer q >= 2.  Only prime
    powers are honest field sizes: other q raise when ``strict`` and
    warn otherwise (the value is still the polynomial's)."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field size must be an integer >= 2, got {q}")
    if not is_prime_power(q):
        if strict:
            raise ValueError(f"{q} is not a prime power")
        warnings.warn(f"{q} is not a prime power; value is a polynomial evaluation, not a point count")
    return phi(q)


def euler_characteristic_real(phi: Poly) -> int:
    """Game polynomial at -1; always 0 or 1."""
    return phi(-1)


def euler_characteristic_complex(phi: Poly) -> int:
    """Game polynomial at 1, i.e. the total number of cells."""
    return phi(1)


def poincare_polynomial(phi: Poly) -> Poly:
    """The game polynomial with q replaced by q^2 (cells contribute only
    in even degrees)."""
    return phi.substitute_q_squared()
