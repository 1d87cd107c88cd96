"""The cross-identity verification suite behind ``tgk verify``.

Every check recomputes one identity along two independent routes and
reports a pass/fail record; the CLI turns any failure into exit code 1.
Eleven checks are rows of one table, ``ROUTES``, which holds their caps.  A
route maps a size n (an exhaustive route) or one tree (a tree route) to
the detail of its first failure, or to None.  ``_runner`` owns what the
rows share: ``min(cfg.n, cap)``, the loop over sizes, or over rooted
trees and then seeded samples, the early return and the pass detail.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from . import game, geometry, lattice, perm, poly, seq, tamari, tree
from .report import CheckResult, VerifyConfig


def _check_sequence_methods(cfg: VerifyConfig) -> CheckResult:
    name = "sequence-methods"
    n_max = min(cfg.n, cfg.census_limit)
    table = seq.census_table(n_max, census_limit=cfg.census_limit)
    reference = table["stirling"]
    for method, values in table.items():
        if values != reference:
            return CheckResult(name, False, f"{method} disagrees: {values} vs {reference}")
    anchors = {1: 1, 2: 0, 3: 1, 4: 1, 5: 8, 6: 26}
    for n, expected in anchors.items():
        if n <= n_max and reference[n - 1] != expected:
            return CheckResult(name, False, f"value at n={n} is {reference[n - 1]}, expected {expected}")
    return CheckResult(name, True, f"five methods agree through n={n_max}")


def _stirling_row_sums(n: int) -> str | None:
    for k, row in enumerate(seq._stirling_rows(n)):
        if sum(row) != math.factorial(k):
            return f"row {k} sums to {sum(row)}"


def _separator_weight(n: int) -> str | None:
    weights = {shape: tree.increasing_labelings(shape) for shape in tree.rooted_trees(n)}
    if sum(weights.values()) != math.factorial(n - 1):
        return f"n={n}: shape weights sum to {sum(weights.values())}, not {n - 1}!"
    total = poly.ZERO
    for shape, weight in weights.items():
        total = total + poly.Poly((weight,)) * lattice.PruningLattice(shape).rank_polynomial()
    if total != seq.separator_weight_polynomial(n):
        return f"n={n}: {total} vs {seq.separator_weight_polynomial(n)}"


def _signed_placements(n: int) -> str | None:
    total = perm.signed_placement_total(n)
    expected = seq.census_by_stirling_sum(n)
    return None if total == expected else f"n={n}: signed total {total}, expected {expected}"


def _bijection_roundtrip(n: int) -> str | None:
    for p in perm.enumerate_fixing_one(n):
        if tree.perm_from_increasing_tree(tree.first_inversion_tree(p)) != p:
            return f"round trip fails at {p}"


def _pattern_bijections(n: int) -> str | None:
    tables = [tree.fif_from_tree(shape) for shape in tree.plane_trees(n)]
    east, west = {}, {}
    for p in perm.enumerate_fixing_one(n):
        in_east, in_west = perm.avoids(p, 213), perm.avoids(p, 312)
        if in_east or in_west:  # only an avoider's table is needed
            fif = perm.first_inversions(p)
            if in_east:
                east.setdefault(fif, []).append(p)
            if in_west:
                west.setdefault(fif, []).append(p)
    if len(east) != len(tables) or any(len(v) != 1 for v in east.values()):
        return f"213 avoiders do not match trees at n={n}"
    if len(west) != len(tables) or any(len(v) != 1 for v in west.values()):
        return f"312 avoiders do not match trees at n={n}"
    for fif in tables:
        top, bottom = tamari._extremes(fif)
        if east[fif] != [top] or west[fif] != [bottom]:
            return f"stack labelings miss extremes at n={n}"


def _placement_iso(n: int) -> str | None:
    for p in perm.enumerate_fixing_one(n):
        if not lattice.placements_match_prunings(p):
            return f"isomorphism fails at {p}"


def _congruence(n: int) -> str | None:
    failed = [c.details for c in tamari.verify_congruence(n) if not c.passed]
    return f"n={n}: " + "; ".join(failed) if failed else None


def _quotient_rows(n: int):
    """Definition-level quotient order as bitset rows over classes: bit b
    of ``above[a]``, and bit a of ``below[b]``, is set when some member of
    class a is weak-order below some member of class b."""
    elements = [tamari.TamariElement.from_tree(t) for t in tree.plane_trees(n)]
    index = {e.fif: k for k, e in enumerate(elements)}
    members: list[list[int]] = [[] for _ in elements]  # inversion sets as masks
    for p in perm.enumerate_fixing_one(n):
        members[index[perm.first_inversions(p)]].append(sum(1 << (i * n + j) for i, j in perm.inversions(p)))
    above, below = [0] * len(elements), [0] * len(elements)
    for a, lows in enumerate(members):
        for b, highs in enumerate(members):
            if any(low & ~high == 0 for low in lows for high in highs):
                above[a] |= 1 << b
                below[b] |= 1 << a
    return elements, index, above, below


def _join_meet(n: int) -> str | None:
    elements, index, above, below = _quotient_rows(n)
    for ia, a in enumerate(elements):
        for ib, b in enumerate(elements):
            uppers, lowers = above[ia] & above[ib], below[ia] & below[ib]
            least = [k for k in lattice._bits(uppers) if uppers & ~above[k] == 0]
            greatest = [k for k in lattice._bits(lowers) if lowers & ~below[k] == 0]
            if len(least) != 1 or len(greatest) != 1:
                return f"not a lattice at n={n}"
            if index[tamari.tamari_join(a, b).fif] != least[0]:
                return f"join mismatch at n={n}: {a.fif} vs {b.fif}"
            if index[tamari.tamari_meet(a, b).fif] != greatest[0]:
                return f"meet mismatch at n={n}: {a.fif} vs {b.fif}"


def _pruning_sum(t) -> str | None:
    if poly.game_polynomial(t) != poly.game_polynomial_from_prunings(t):
        return f"routes disagree on {tree.format_plane_tree(t)}"


def _winner_sign(t) -> str | None:
    value = poly.game_polynomial(t)(-1)
    if value not in (0, 1):
        return f"value at -1 is {value}"
    if (value == 1) != (game.winner(t) is game.Winner.SECOND):
        return f"sign test disagrees on {tree.format_plane_tree(t)}"
    if game.winner(t) is not game.winner(tree.canonicalize(t)):
        return f"winner not reorder-invariant on {tree.format_plane_tree(t)}"


def _euler_data(t) -> str | None:
    profiles = poly.pruning_profiles(t)
    phi = poly.game_polynomial(t)
    cells = sum(profiles.values())
    if geometry.euler_characteristic_complex(phi) != cells:
        return f"cell count mismatch on {tree.format_plane_tree(t)}"
    ranks = [(r, count) for (r, _, _), count in profiles.items()]
    direct_real = sum(-count if r % 2 else count for r, count in ranks)
    if geometry.euler_characteristic_real(phi) != direct_real:
        return f"real characteristic mismatch on {tree.format_plane_tree(t)}"
    if geometry.euler_characteristic_real(phi) != cells % 2:
        return f"parity mismatch on {tree.format_plane_tree(t)}"
    for q in (2, 3, 5):
        direct = sum(count * q**r for r, count in ranks)
        if geometry.point_count(phi, q) != direct:
            return f"point count mismatch at q={q}"
    if geometry.poincare_polynomial(phi)(1) != cells:
        return f"poincare total mismatch on {tree.format_plane_tree(t)}"


class Route(NamedTuple):
    """A check's name, the largest size its exhaustive part reaches, its
    route and its pass detail (``{n}`` the size reached, ``{samples}`` the
    sample count); a tree route also sees samples of up to ``sample_max``."""

    name: str
    cap: int
    route: Callable[..., str | None]
    passed: str
    sample_max: int = 0


ROUTES = (
    Route("stirling-row-sums", 200, _stirling_row_sums, "rows 0..{n}"),
    Route("separator-weight-identity", 8, _separator_weight, "rank polynomials sum correctly through n={n}"),
    Route("signed-placements", 7, _signed_placements, "signed totals match through n={n}"),
    Route("bijection-roundtrip", 8, _bijection_roundtrip, "all permutations through n={n}"),
    Route("pattern-bijections", 8, _pattern_bijections, "labelings invert pattern classes through n={n}"),
    Route("placements-lattice-iso", 6, _placement_iso, "all permutations through n={n}"),
    Route("congruence", 7, _congruence, "fibers, projections and hook counts through n={n}"),
    Route("join-meet-bruteforce", 6, _join_meet, "formulas match brute force through n={n}"),
    Route("pruning-sum", 9, _pruning_sum, "exhaustive to {n} vertices plus {samples} samples", sample_max=14),
    Route("winner-sign", 0, _winner_sign, "{samples} sampled trees", sample_max=12),
    Route("euler-data", 0, _euler_data, "{samples} sampled trees, q in 2,3,5", sample_max=12),
)


def _runner(row: Route) -> Callable[[VerifyConfig], CheckResult]:
    """The check that runs ``row``'s route until its first failure."""

    def check(cfg: VerifyConfig) -> CheckResult:
        n_max = min(cfg.n, row.cap)
        cases = range(1, n_max + 1)
        if row.sample_max:
            rng = random.Random(cfg.seed)
            cases = itertools.chain(
                (t for n in cases for t in tree.rooted_trees(n)),
                (tree.random_plane_tree(rng.randint(1, row.sample_max), rng) for _ in range(cfg.samples)),
            )
        for case in cases:
            failure = row.route(case)
            if failure is not None:
                return CheckResult(row.name, False, failure)
        return CheckResult(row.name, True, row.passed.format(n=n_max, samples=cfg.samples))

    return check


def _check_monte_carlo(cfg: VerifyConfig) -> CheckResult:
    name = "monte-carlo"
    trees = [((), ((), ())), ((((),),),), ((), (), ())]
    q = Fraction(-1, 2)
    eps = poly.event_tolerance(cfg.trials)
    for k, t in enumerate(trees):
        exact = float(poly.game_polynomial(t)(q))
        emp = poly.event_frequency(t, q, trials=cfg.trials, seed=cfg.seed + k)
        if abs(emp - exact) > eps:
            return CheckResult(name, False, f"|{emp} - {exact}| > eps = {eps:.4f} on tree {k}")
    detail = f"{cfg.trials} trials per tree at q=-1/2, within Hoeffding eps = {eps:.4f} at delta = {poly.EVENT_DELTA:g}"
    return CheckResult(name, True, detail)


ALL_CHECKS = (_check_sequence_methods, *map(_runner, ROUTES), _check_monte_carlo)


def run_verify(cfg: VerifyConfig) -> list[CheckResult]:
    return [check(cfg) for check in ALL_CHECKS]
