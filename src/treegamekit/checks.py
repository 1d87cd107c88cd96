"""The cross-identity verification suite behind ``tgk verify``.

Every check recomputes one identity along two independent routes and
reports a pass/fail record; the CLI turns any failure into exit code 1.
Exhaustive parts are bounded by the configured size (further capped per
check to keep the suite quick), sampled parts draw seeded random trees.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import game, geometry, lattice, perm, poly, seq, tamari, tree
from .report import CheckResult


@dataclass(frozen=True)
class VerifyConfig:
    n: int = 7
    seed: int = 0
    samples: int = 200
    trials: int = 20000
    census_limit: int = game.CENSUS_LIMIT


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


def _check_stirling_rows(cfg: VerifyConfig) -> CheckResult:
    name = "stirling-row-sums"
    for n, row in enumerate(seq._stirling_rows(cfg.n)):
        total = sum(row)
        if total != math.factorial(n):
            return CheckResult(name, False, f"row {n} sums to {total}")
    return CheckResult(name, True, f"rows 0..{cfg.n}")


def _check_separator_weight(cfg: VerifyConfig) -> CheckResult:
    name = "separator-weight-identity"
    n_max = min(cfg.n, 8)
    for n in range(1, n_max + 1):
        weights = {shape: tree.increasing_labelings(shape) for shape in tree.rooted_trees(n)}
        if sum(weights.values()) != math.factorial(n - 1):
            return CheckResult(name, False, f"n={n}: shape weights sum to {sum(weights.values())}, not {n - 1}!")
        total = poly.ZERO
        for shape, weight in weights.items():
            total = total + poly.Poly((weight,)) * lattice.PruningLattice(shape).rank_polynomial()
        if total != seq.separator_weight_polynomial(n):
            return CheckResult(name, False, f"n={n}: {total} vs {seq.separator_weight_polynomial(n)}")
    return CheckResult(name, True, f"rank polynomials sum correctly through n={n_max}")


def _check_signed_placements(cfg: VerifyConfig) -> CheckResult:
    name = "signed-placements"
    n_max = min(cfg.n, 7)
    for n in range(1, n_max + 1):
        total = perm.signed_placement_total(n)
        expected = seq.census_by_stirling_sum(n)
        if total != expected:
            return CheckResult(name, False, f"n={n}: signed total {total}, expected {expected}")
    return CheckResult(name, True, f"signed totals match through n={n_max}")


def _check_bijection_roundtrip(cfg: VerifyConfig) -> CheckResult:
    name = "bijection-roundtrip"
    n_max = min(cfg.n, 8)
    for n in range(1, n_max + 1):
        for p in perm.enumerate_fixing_one(n):
            lt = tree.first_inversion_tree(p)
            if tree.perm_from_increasing_tree(lt) != p:
                return CheckResult(name, False, f"round trip fails at {p}")
    return CheckResult(name, True, f"all permutations through n={n_max}")


def _check_pattern_bijections(cfg: VerifyConfig) -> CheckResult:
    name = "pattern-bijections"
    n_max = min(cfg.n, 8)
    for n in range(1, n_max + 1):
        shapes = tree.plane_trees(n)
        east = {}
        west = {}
        for p in perm.enumerate_fixing_one(n):
            shape = tree.plane_shape(tree.first_inversion_tree(p))
            if perm.avoids(p, 213):
                east.setdefault(shape, []).append(p)
            if perm.avoids(p, 312):
                west.setdefault(shape, []).append(p)
        if len(east) != len(shapes) or any(len(v) != 1 for v in east.values()):
            return CheckResult(name, False, f"213 avoiders do not match trees at n={n}")
        if len(west) != len(shapes) or any(len(v) != 1 for v in west.values()):
            return CheckResult(name, False, f"312 avoiders do not match trees at n={n}")
        for shape in shapes:
            top = tree.perm_from_increasing_tree(tree.eastpush_labeling(shape))
            bottom = tree.perm_from_increasing_tree(tree.westpop_labeling(shape))
            if east[shape] != [top] or west[shape] != [bottom]:
                return CheckResult(name, False, f"stack labelings miss extremes at n={n}")
    return CheckResult(name, True, f"labelings invert pattern classes through n={n_max}")


def _check_placement_iso(cfg: VerifyConfig) -> CheckResult:
    name = "placements-lattice-iso"
    n_max = min(cfg.n, 6)
    for n in range(1, n_max + 1):
        for p in perm.enumerate_fixing_one(n):
            if not lattice.placements_match_prunings(p):
                return CheckResult(name, False, f"isomorphism fails at {p}")
    return CheckResult(name, True, f"all permutations through n={n_max}")


def _check_congruence(cfg: VerifyConfig) -> CheckResult:
    name = "congruence"
    n_max = min(cfg.n, 7)
    for n in range(1, n_max + 1):
        rep = tamari.verify_congruence(n)
        if not rep.ok:
            detail = "; ".join(c.details for c in rep.checks if not c.passed)
            return CheckResult(name, False, f"n={n}: {detail}")
    return CheckResult(name, True, f"fibers, projections and hook counts through n={n_max}")


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


def _check_join_meet(cfg: VerifyConfig) -> CheckResult:
    name = "join-meet-bruteforce"
    n_max = min(cfg.n, 6)
    for n in range(1, n_max + 1):
        elements, index, above, below = _quotient_rows(n)
        for ia, a in enumerate(elements):
            for ib, b in enumerate(elements):
                uppers, lowers = above[ia] & above[ib], below[ia] & below[ib]
                least = [k for k in lattice._bits(uppers) if uppers & ~above[k] == 0]
                greatest = [k for k in lattice._bits(lowers) if lowers & ~below[k] == 0]
                if len(least) != 1 or len(greatest) != 1:
                    return CheckResult(name, False, f"not a lattice at n={n}")
                if index[tamari.tamari_join(a, b).fif] != least[0]:
                    return CheckResult(name, False, f"join mismatch at n={n}: {a.fif} vs {b.fif}")
                if index[tamari.tamari_meet(a, b).fif] != greatest[0]:
                    return CheckResult(name, False, f"meet mismatch at n={n}: {a.fif} vs {b.fif}")
    return CheckResult(name, True, f"formulas match brute force through n={n_max}")


def _sampled_trees(cfg: VerifyConfig, max_n: int) -> list:
    rng = random.Random(cfg.seed)
    return [tree.random_plane_tree(rng.randint(1, max_n), rng) for _ in range(cfg.samples)]


def _check_pruning_sum(cfg: VerifyConfig) -> CheckResult:
    name = "pruning-sum"
    n_max = min(cfg.n, 9)
    for n in range(1, n_max + 1):
        for t in tree.rooted_trees(n):
            if poly.game_polynomial(t) != poly.game_polynomial_from_prunings(t):
                return CheckResult(name, False, f"routes disagree on {tree.format_plane_tree(t)}")
    for t in _sampled_trees(cfg, 14):
        if poly.game_polynomial(t) != poly.game_polynomial_from_prunings(t):
            return CheckResult(name, False, f"routes disagree on {tree.format_plane_tree(t)}")
    return CheckResult(name, True, f"exhaustive to {n_max} vertices plus {cfg.samples} samples")


def _check_winner_sign(cfg: VerifyConfig) -> CheckResult:
    name = "winner-sign"
    for t in _sampled_trees(cfg, 12):
        value = poly.game_polynomial(t)(-1)
        if value not in (0, 1):
            return CheckResult(name, False, f"value at -1 is {value}")
        second = game.winner(t) is game.Winner.SECOND
        if (value == 1) != second:
            return CheckResult(name, False, f"sign test disagrees on {tree.format_plane_tree(t)}")
        if game.winner(t) is not game.winner(tree.canonicalize(t)):
            return CheckResult(name, False, f"winner not reorder-invariant on {tree.format_plane_tree(t)}")
    return CheckResult(name, True, f"{cfg.samples} sampled trees")


def _check_euler_data(cfg: VerifyConfig) -> CheckResult:
    name = "euler-data"
    for t in _sampled_trees(cfg, 12):
        profiles = poly.pruning_profiles(t)
        phi = poly.game_polynomial(t)
        cells = len(profiles)
        if geometry.euler_characteristic_complex(phi) != cells:
            return CheckResult(name, False, f"cell count mismatch on {tree.format_plane_tree(t)}")
        ranks = Counter(r for r, _, _ in profiles)
        direct_real = sum(-count if r % 2 else count for r, count in ranks.items())
        if geometry.euler_characteristic_real(phi) != direct_real:
            return CheckResult(name, False, f"real characteristic mismatch on {tree.format_plane_tree(t)}")
        if geometry.euler_characteristic_real(phi) != cells % 2:
            return CheckResult(name, False, f"parity mismatch on {tree.format_plane_tree(t)}")
        for q in (2, 3, 5):
            direct = sum(count * q**r for r, count in ranks.items())
            if geometry.point_count(phi, q) != direct:
                return CheckResult(name, False, f"point count mismatch at q={q}")
        if geometry.poincare_polynomial(phi)(1) != cells:
            return CheckResult(name, False, f"poincare total mismatch on {tree.format_plane_tree(t)}")
    return CheckResult(name, True, f"{cfg.samples} sampled trees, q in 2,3,5")


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


ALL_CHECKS = (
    _check_sequence_methods,
    _check_stirling_rows,
    _check_separator_weight,
    _check_signed_placements,
    _check_bijection_roundtrip,
    _check_pattern_bijections,
    _check_placement_iso,
    _check_congruence,
    _check_join_meet,
    _check_pruning_sum,
    _check_winner_sign,
    _check_euler_data,
    _check_monte_carlo,
)


def run_verify(cfg: VerifyConfig) -> list[CheckResult]:
    return [check(cfg) for check in ALL_CHECKS]
