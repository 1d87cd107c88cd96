#!/usr/bin/env python3
"""Print the counting sequence by every available route, side by side.

The census column counts increasing trees label by label and stops at
the library's census cap by default; the closed-form columns go as far
as you like.
"""

import argparse
import sys

from treegamekit.game import CENSUS_LIMIT
from treegamekit.seq import METHODS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument(
        "--census-limit",
        type=int,
        default=CENSUS_LIMIT,
        help="largest n for the census column",
    )
    args = parser.parse_args()
    n_max = args.n_max
    if n_max < 1:
        parser.error("--n-max must be >= 1")

    census_rows = min(n_max, args.census_limit)
    columns = {
        method: route(census_rows if method == "census" else n_max, args.census_limit)
        for method, route in METHODS.items()
    }

    header = ["n", *METHODS, "agree"]
    print("\t".join(header))
    disagreements = 0
    for n in range(1, n_max + 1):
        row = [str(n)]
        values = []
        for method in METHODS:
            col = columns[method]
            if n <= len(col):
                row.append(str(col[n - 1]))
                values.append(col[n - 1])
            else:
                row.append("-")
        agree = len(set(values)) == 1
        disagreements += not agree
        row.append("yes" if agree else "NO")
        print("\t".join(row))
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
