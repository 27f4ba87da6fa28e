"""The benchmark's workloads: their operations, inputs and correctness checks.

A workload is a fixed list of operations run in order inside one fresh
interpreter.  An operation is either a CLI call, ``wordgraphs.cli.main(argv)``
with its stdout captured, or a library call through a module attribute (so
that the span tracer's patched bindings are the ones called).  Every
operation has a check that runs after the timed region and returns an error
message or ``None``.

Only ``long-words`` reads the seed, for its batch of random words; the other
workloads and every digest-checked CLI call take fixed inputs.

Expected values are the acceptance numbers of the reproduction at the scale
each workload runs, plus the SHA-256 of every deterministic CLI output as
recorded in ``expected.json`` (see ``record.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("word-ages", "graph-census", "long-words")

# word-ages
JONSSON_ARGV = ["jonsson", "--fib", "--length", "60", "--k-max", "7", "--n-max", "4"]
BOUNDS_ARGV = ["bounds", "--fib", "--k-max", "6", "--length", "32", "--revalidate-2x"]
FIB_COFINALITY = {"0": 0, "1": 1, "2": 3, "3": 3, "4": 3}
FIB_BOUNDS_AT_K6 = 22

# graph-census
CENSUS_ORDER = 7
CENSUS_CLASSES = [1, 1, 2, 4, 11, 34, 156, 1044]
CENSUS_PRIMES = [1, 1, 2, 0, 1, 4, 26, 260]
CENSUS_CRITICAL = [0, 0, 0, 0, 1, 0, 2, 0]

# long-words
GRAPH_LENGTH = 100
REALIZER_LENGTH = 600
RANDOM_WORDS = 60
RANDOM_REALIZERS = 20
RANDOM_LENGTHS = (40, 60)


@dataclass
class Op:
    """One operation; ``argv`` for a CLI call, ``call(state)`` otherwise."""

    name: str
    check: Callable[[Any], str | None]
    argv: list[str] | None = None
    call: Callable[[dict], Any] | None = None

    @property
    def subcommand(self) -> str | None:
        return self.argv[0] if self.argv else None


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- checks ---------------------------------------------------------------


def cli_check(expected_digest: str | None,
              more: Callable[[str], str | None] | None = None):
    """Exit code 0, stdout bytes equal to the recorded digest, then ``more``."""
    def check(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()[-200:]}"
        if expected_digest is None:
            return "no digest recorded for this operation"
        if digest(res.stdout) != expected_digest:
            return "stdout differs from the recorded digest"
        return more(res.stdout) if more else None
    return check


def equals(expected, what: str):
    def check(value) -> str | None:
        return None if value == expected else f"{what}: {value!r} != {expected!r}"
    return check


def _jonsson_numbers(stdout: str) -> str | None:
    cof = json.loads(stdout)["cofinality"]
    return equals(FIB_COFINALITY, "cofinality m(0..4)")(cof)


def _bounds_numbers(stdout: str) -> str | None:
    doc = json.loads(stdout)
    return equals(FIB_BOUNDS_AT_K6, "bound certificates at k=6")(
        len(doc["certificates"]))


def _prime_is_prime(stdout: str) -> str | None:
    return None if json.loads(stdout)["prime"] is True else "expected a prime graph"


def _graph_matches(g6_line: str):
    def check(stdout: str) -> str | None:
        first = stdout.split("\n", 1)[0]
        return None if first == g6_line else "graph6 line differs from the input file"
    return check


def _realizer_revalidates(bits: str):
    def check(stdout: str) -> str | None:
        from wordgraphs import realizers, wordgraph

        doc = json.loads(stdout)
        if doc["word"] != bits or doc["validated"] is not True:
            return "realizer report does not validate its word"
        r = realizers.realizer_from_json(doc)
        if not realizers.validate_realizer(r, wordgraph.graph_of_word(bits)):
            return "realizer fails independent re-validation"
        return None
    return check


# -- graph-census steps --------------------------------------------------


def _census_enumerate(state: dict):
    from wordgraphs import graphs

    state["levels"] = graphs.enumerate_graphs(CENSUS_ORDER)
    return [len(level) for level in state["levels"]]


def _census_primes(state: dict):
    from wordgraphs import primes

    state["primes"] = [[g for g in level if primes.is_prime(g)]
                       for level in state["levels"]]
    return [len(level) for level in state["primes"]]


def _census_critical(state: dict):
    from wordgraphs import primes

    return [sum(1 for g in level if primes.is_critically_prime(g))
            for level in state["primes"]]


def _census_removal_pairs(state: dict):
    """Pairs for order >= 7, each re-validated as prime_census.py does."""
    from wordgraphs import graphs, primes

    validated = 0
    for n, level in enumerate(state["primes"]):
        if n < 7:
            continue
        for g in level:
            pair = primes.schmerl_trotter_pair(g)
            rest = [v for v in range(n) if v not in pair]
            validated += primes.is_prime(graphs.induced_subgraph(g, rest))
    return validated


def _census_heights(state: dict):
    """Height inequality h <= n <= 2(h - 1) for every prime of order >= 2."""
    from wordgraphs import primes

    checked = violations = 0
    for n, level in enumerate(state["primes"]):
        if n < 2:
            continue
        for g in level:
            h = primes.prime_height(g).height
            checked += 1
            violations += not (h <= n <= 2 * (h - 1))
    return checked, violations


def _heights_hold(value) -> str | None:
    checked, violations = value
    expected = sum(CENSUS_PRIMES[2:])
    if checked != expected or violations:
        return f"height inequality: {violations} violations over {checked} primes"
    return None


# -- long-words random batch ------------------------------------------------


def random_words(seed: int) -> list[str]:
    rng = random.Random(seed)
    lo, hi = RANDOM_LENGTHS
    return ["".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))
            for _ in range(RANDOM_WORDS)]


def _identity_batch(bits_list: list[str]):
    """Complement and reversal identities, then realizers, on random words."""
    def call(state: dict):
        from wordgraphs import graphs, realizers, wordgraph, words

        mismatches = 0
        for bits in bits_list:
            w = words.explicit_word(bits)
            L = len(bits)
            g = wordgraph.graph_of_word(w, L)
            if wordgraph.graph_of_word(words.complement_word(w), L) != graphs.complement(g):
                mismatches += 1
            fwd = wordgraph.graph_of_word_forward(words.reverse_star(w, L), L)
            if graphs.canonical_key(fwd) != graphs.canonical_key(g):
                mismatches += 1
        invalid = 0
        for bits in bits_list[:RANDOM_REALIZERS]:
            r = realizers.build_realizer(bits)
            invalid += not realizers.validate_realizer(r, wordgraph.graph_of_word(bits))
        return mismatches, invalid
    return call


# -- workload assembly --------------------------------------------------------


def build(workload: str, seed: int, work_dir: Path) -> list[Op]:
    """Make the workload's inputs (the set-up phase) and return its ops."""
    expected = json.loads(EXPECTED_PATH.read_text()).get(workload, {})

    def cli(argv: list[str], name: str | None = None, more=None) -> Op:
        name = name or " ".join(argv)
        return Op(name=name, argv=argv, check=cli_check(expected.get(name), more))

    if workload == "word-ages":
        return [
            cli(JONSSON_ARGV, more=_jonsson_numbers),
            cli(BOUNDS_ARGV, more=_bounds_numbers),
            cli(["age", "--cf", "2,(1)", "--intercept", "slope",
                 "--length", "60", "--k-max", "6"]),
            cli(["age", "--cf", "3,(1)", "--intercept", "slope",
                 "--length", "60", "--k-max", "6"]),
        ]
    if workload == "graph-census":
        return [
            Op("enumerate_graphs", equals(CENSUS_CLASSES, "classes per order"),
               call=_census_enumerate),
            Op("is_prime", equals(CENSUS_PRIMES, "primes per order"),
               call=_census_primes),
            Op("is_critically_prime", equals(CENSUS_CRITICAL, "critical primes per order"),
               call=_census_critical),
            Op("schmerl_trotter_pair", equals(CENSUS_PRIMES[7], "re-validated removal pairs"),
               call=_census_removal_pairs),
            Op("prime_height", _heights_hold, call=_census_heights),
        ]
    if workload == "long-words":
        from wordgraphs import graph6, wordgraph, words
        from wordgraphs.catalogue import FAMILIES

        fib = words.fibonacci_word()
        g6_line = graph6.to_graph6(wordgraph.graph_of_word(fib, GRAPH_LENGTH))
        g6_name = f"fib{GRAPH_LENGTH}.g6"
        g6_file = work_dir / g6_name
        g6_file.write_text(g6_line + "\n")
        realizer_bits = fib.prefix(REALIZER_LENGTH)
        batch = random_words(seed)
        ops = [
            cli(["word", "--fib", "--length", "10000", "--complexity", "12",
                 "--recurrence", "12"]),
            cli(["graph", "--fib", "--length", str(GRAPH_LENGTH)],
                more=_graph_matches(g6_line)),
            cli(["prime", "--g6", str(g6_file)], name=f"prime --g6 {g6_name}",
                more=_prime_is_prime),
            cli(["detect", "--g6", str(g6_file), "--n", "4"],
                name=f"detect --g6 {g6_name} --n 4"),
            cli(["prime", "--cf", "3,(1)", "--intercept", "slope", "--length", "80"],
                more=_prime_is_prime),
            cli(["realizer", "--word", realizer_bits],
                name=f"realizer --word <fibonacci prefix {REALIZER_LENGTH}>",
                more=_realizer_revalidates(realizer_bits)),
        ]
        ops += [cli(["catalogue", "--family", fam, "--n", "8"]) for fam in FAMILIES]
        ops.append(Op("random-word identities", equals((0, 0), "(mismatches, invalid)"),
                      call=_identity_batch(batch)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
