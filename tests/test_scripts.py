"""The runnable experiments under scripts/, run as a user would run them."""

import csv
import os
import runpy
import subprocess
import sys
from pathlib import Path

from wordgraphs.ages import bounds_enumerate
from wordgraphs.graphs import enumerate_graphs
from wordgraphs.primes import is_critically_prime, is_prime, prime_height

ROOT = Path(__file__).resolve().parent.parent


def test_prime_census_script_rows():
    # from the repo root with no PYTHONPATH: the script finds src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "scripts/prime_census.py", "--n-max", "6"],
        cwd=ROOT, env=env, capture_output=True, check=True)
    stdout = done.stdout.decode()
    assert "\r" not in stdout  # rows end in a bare newline
    rows = list(csv.reader(stdout.splitlines()))
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
    assert done.stderr.decode().count("\n") == 7  # one progress line per order


def test_bounds_sweep_script_rows(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, "scripts/bounds_sweep.py", "--k-max", "4", "--scale", "6",
         "--outdir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    # the script's table of words, loaded without running its main()
    words = runpy.run_path(str(ROOT / "scripts" / "bounds_sweep.py"))["WORDS"]
    for path in tmp_path.iterdir():
        assert b"\r" not in path.read_bytes(), path  # rows end in a bare newline
    with open(tmp_path / "summary.csv", newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["word", "k_max", "bounds", "stable_at_2x", "exploratory"]
    assert [row[:3] + row[4:] for row in rows[1:]] == [
        [name, str(k), str(len(bounds_enumerate(word, 6 * k, k))), str(exploratory)]
        for name, (word, exploratory) in words.items() for k in (3, 4)]
    assert all(row[3] == "True" for row in rows[1:] if row[4] == "False")
    for name in words:
        with open(tmp_path / f"{name}.csv", newline="") as fp:
            assert list(csv.reader(fp)) == [["k_max", "bound_count"]] + [
                row[1:3] for row in rows[1:] if row[0] == name]
