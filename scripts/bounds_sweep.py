#!/usr/bin/env python3
"""Sweep bound-certificate counts over member size for several words.

Writes one CSV per word (size, bound_count) plus a combined summary, and
re-validates every certificate at the prefix and at twice it, in one walk
per certificate; the summary's ``stable_at_2x`` says whether all held.
Periodic nonconstant words are worth a look here: their counts flattening
out with k is the exploratory side of the finiteness question for such
ages, so the summary marks those rows as exploratory.
"""

import argparse
import csv
import sys
from pathlib import Path

# the package of the checkout this script sits in, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wordgraphs.ages import bounds_enumerate, validate_bound_certificate
from wordgraphs.words import fibonacci_word, mechanical_word, periodic_word, golden_slope

WORDS = {
    "all-ones": (periodic_word("1"), False),
    "period-01": (periodic_word("01"), True),
    "period-011": (periodic_word("011"), True),
    "fibonacci": (fibonacci_word(), False),
    "golden-mechanical": (mechanical_word(golden_slope(), "slope"), False),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=6)
    ap.add_argument("--scale", type=int, default=10, help="prefix length = scale * k")
    ap.add_argument("--outdir", type=Path, default=Path("out/bounds"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    summary = [("word", "k_max", "bounds", "stable_at_2x", "exploratory")]
    for name, (word, exploratory) in WORDS.items():
        rows = [("k_max", "bound_count")]
        for k in range(3, args.k_max + 1):
            L = args.scale * k
            certs = bounds_enumerate(word, L, k)
            stable = all(validate_bound_certificate(c, word, L, 2 * L) for c in certs)
            rows.append((k, len(certs)))
            summary.append((name, k, len(certs), stable, exploratory))
            print(f"{name:18s} k={k} L={L}: {len(certs)} bounds "
                  f"(stable at 2L: {stable})")
        with open(args.outdir / f"{name}.csv", "w", newline="") as fp:
            csv.writer(fp, lineterminator="\n").writerows(rows)
    with open(args.outdir / "summary.csv", "w", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerows(summary)
    print(f"wrote {args.outdir}/summary.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
