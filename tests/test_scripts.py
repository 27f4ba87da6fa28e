"""The runnable experiments under scripts/, run as a user would run them."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from wordgraphs.graphs import enumerate_graphs
from wordgraphs.primes import is_critically_prime, is_prime, prime_height

ROOT = Path(__file__).resolve().parent.parent


def test_prime_census_script_rows():
    # from the repo root with no PYTHONPATH: the script finds src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "scripts/prime_census.py", "--n-max", "6"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    rows = list(csv.reader(done.stdout.splitlines()))
    assert rows[0] == ["order", "classes", "prime", "critically_prime",
                       "height_min", "height_max", "removal_pairs_validated"]
    want = []
    for n, level in enumerate(enumerate_graphs(6)):
        primes = [g for g in level if is_prime(g)]
        heights = [prime_height(g).height for g in primes]
        want.append([str(n), str(len(level)), str(len(primes)),
                     str(sum(map(is_critically_prime, primes))),
                     str(min(heights, default="")), str(max(heights, default="")),
                     ""])
    assert rows[1:] == want
    assert done.stderr.count("\n") == 7  # one progress line per order
