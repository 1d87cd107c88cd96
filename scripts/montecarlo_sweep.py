#!/usr/bin/env python3
"""Sweep the coin-flip experiment against the exact polynomial.

For a batch of seeded random trees and a grid of q values in [-1, 0],
estimate the event probability empirically and report the worst
deviation from phi(q).  Exits nonzero when the worst error crosses the
Hoeffding tolerance for the trial count (``event_tolerance``: each
estimate strays that far with probability at most 1e-9).
"""

import argparse
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from treegamekit.poly import event_frequency, event_tolerance, game_polynomial
from treegamekit.tree import format_plane_tree, random_plane_tree


@dataclass(frozen=True)
class SweepConfig:
    trees: int = 20
    max_size: int = 10
    trials: int = 100_000
    seed: int = 0
    qs: tuple[Fraction, ...] = (
        Fraction(-1, 4),
        Fraction(-1, 2),
        Fraction(-3, 4),
    )


def run(cfg: SweepConfig) -> int:
    tolerance = event_tolerance(cfg.trials)
    worst = 0.0
    worst_case = ""
    print("tree\tq\texact\tempirical\tabs_error")
    for i in range(cfg.trees):
        size = 2 + i % (cfg.max_size - 1)
        t = random_plane_tree(size, random.Random(cfg.seed + 31 * i))
        phi = game_polynomial(t)
        for j, q in enumerate(cfg.qs):
            exact = float(phi(q))
            got = event_frequency(
                t, q, trials=cfg.trials, seed=cfg.seed + 1000 + 17 * i + j
            )
            err = abs(got - exact)
            print(
                f"{format_plane_tree(t)}\t{q}\t{exact:.6f}\t{got:.6f}\t{err:.6f}"
            )
            if err > worst:
                worst = err
                worst_case = f"{format_plane_tree(t)} at q={q}"
    print(f"worst\t{worst:.6f}\t{worst_case}")
    print(f"tolerance\t{tolerance:.6f}")
    if worst > tolerance:
        print(f"FAIL: worst error above {tolerance:.6f}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trees", type=int, default=20)
    parser.add_argument("--max-size", type=int, default=10)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.max_size < 2:
        parser.error("--max-size must be >= 2")
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    cfg = SweepConfig(
        trees=args.trees,
        max_size=args.max_size,
        trials=args.trials,
        seed=args.seed,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
