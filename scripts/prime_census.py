#!/usr/bin/env python3
"""Census of prime graphs by order, with removal pairs and heights.

For each order up to the cap: how many isomorphism classes are prime, how
many of those are critically prime, and the min/max height over the level.
Each prime of order >= 7 gets its two-vertex removal pair re-validated.
Output: CSV to stdout or --out; one progress line per order to stderr.

    PYTHONPATH=src python3 scripts/prime_census.py --n-max 7
"""

import argparse
import csv
import sys
from pathlib import Path

# the package of the checkout this script sits in, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wordgraphs.graphs import enumerate_graphs, induced_subgraph
from wordgraphs.primes import (
    is_critically_prime,
    is_prime,
    prime_height,
    schmerl_trotter_pair,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=7, choices=range(0, 9))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = [("order", "classes", "prime", "critically_prime",
             "height_min", "height_max", "removal_pairs_validated")]
    for n, level in enumerate(enumerate_graphs(args.n_max)):
        primes = [g for g in level if is_prime(g)]
        critical = sum(1 for g in primes if is_critically_prime(g))
        heights = [prime_height(g).height for g in primes]
        validated = 0
        if n >= 7:
            for g in primes:
                pair = schmerl_trotter_pair(g)
                rest = [v for v in range(n) if v not in pair]
                if is_prime(induced_subgraph(g, rest)):
                    validated += 1
        rows.append((n, len(level), len(primes), critical,
                     min(heights, default=""), max(heights, default=""),
                     validated if n >= 7 else ""))
        print(f"order {n}: {len(level)} classes, {len(primes)} prime, "
              f"{critical} critically prime", file=sys.stderr)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    csv.writer(out, lineterminator="\n").writerows(rows)
    if args.out:
        out.close()
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
