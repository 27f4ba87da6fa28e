"""The invariant and acceptance check battery behind ``verify``.

Each check runs at an explicit scale and returns a pass/fail record with a
deterministic detail string (never timestamps or timings), so a fixed seed
reproduces the report byte for byte.  The ``quick`` profile runs the whole
battery in about 0.5 s; ``full`` runs the desk-scale experiment sizes in about
4 s (both on a 2-core machine).  Sampling uses an explicit seeded generator.

Checks that pair an implementation with an independent oracle keep both
routes here: the module search is re-verified against plain subset
enumeration, not against itself.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass

from .ages import (
    age_includes,
    bounds_enumerate,
    jonsson_desk_check,
    validate_bound_certificate,
    word_age,
    word_prime_age,
)
from .graphs import (
    Graph,
    canonical_key,
    clique,
    complement,
    complete_bipartite,
    embeds,
    enumerate_graphs,
    induced_subgraph,
)
from .primes import (
    find_nontrivial_module,
    is_prime,
    prime_height,
    schmerl_trotter_pair,
)
from .realizers import realizer_for_word_graph
from .wordgraph import graph_of_word, graph_of_word_forward
from .words import (
    ContinuedFraction,
    complement_word,
    explicit_word,
    factor_complexity,
    factors,
    fibonacci_word,
    golden_slope,
    mechanical_word,
    periodic_word,
    recurrence_bound,
    reverse_star,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}  ({self.detail})"


def _all_words(max_len: int):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def _random_word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


# -- criterion checks ---------------------------------------------------------


def check_complement_identity(rng: random.Random, exhaustive_len: int = 8,
                              samples: int = 200, max_len: int = 100) -> CheckResult:
    words = list(_all_words(exhaustive_len))
    words += [_random_word(rng, exhaustive_len + 1, max_len) for _ in range(samples)]
    bad = 0
    for bits in words:
        w = explicit_word(bits)
        L = len(bits)
        if graph_of_word(complement_word(w), L) != complement(graph_of_word(w, L)):
            bad += 1
    return CheckResult("complement-identity", bad == 0,
                       f"words={len(words)} mismatches={bad}")


def check_reversal_identity(rng: random.Random, exhaustive_len: int = 8,
                            samples: int = 100, max_len: int = 60) -> CheckResult:
    words = list(_all_words(exhaustive_len))
    words += [_random_word(rng, exhaustive_len + 1, max_len) for _ in range(samples)]
    bad = 0
    for bits in words:
        w = explicit_word(bits)
        L = len(bits)
        fwd = graph_of_word_forward(reverse_star(w, L), L)
        if canonical_key(fwd) != canonical_key(graph_of_word(w, L)):
            bad += 1
    return CheckResult("reversal-identity", bad == 0,
                       f"words={len(words)} mismatches={bad}")


def modules_by_subsets(g: Graph) -> Iterator[tuple[int, ...]]:
    """Independent oracle: every nontrivial module (2 <= |A| < n), by plain
    subset enumeration, smallest first; the tests share it."""
    for size in range(2, g.n):
        for subset in itertools.combinations(range(g.n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if all((g.rows[x] & mask).bit_count() in (0, size)
                   for x in range(g.n) if not (mask >> x) & 1):
                yield subset


def check_module_oracle(n_max: int = 7) -> CheckResult:
    classes = 0
    bad = 0
    for level in enumerate_graphs(n_max):
        for g in level:
            classes += 1
            brute = list(modules_by_subsets(g))
            witness = find_nontrivial_module(g)
            if witness is None:
                bad += brute != []
            else:
                bad += witness.vertices not in brute
    return CheckResult("module-oracle-equivalence", bad == 0,
                       f"classes={classes} n_max={n_max} mismatches={bad}")


def check_schmerl_trotter(orders: tuple[int, ...] = (7, 8)) -> CheckResult:
    checked = 0
    failures = 0
    for n in orders:
        for g in enumerate_graphs(n)[n]:
            if not is_prime(g):
                continue
            checked += 1
            pair = schmerl_trotter_pair(g)
            failures += pair is None or not is_prime(
                induced_subgraph(g, [v for v in range(n) if v not in pair]))
    return CheckResult("schmerl-trotter-pairs", failures == 0,
                       f"orders={list(orders)} primes={checked} failures={failures}")


def check_height_inequality(n_max: int = 8) -> CheckResult:
    checked = 0
    violations = 0
    for n in range(2, n_max + 1):
        for g in enumerate_graphs(n)[n]:
            if not is_prime(g):
                continue
            checked += 1
            h = prime_height(g).height
            if not (h <= g.n <= 2 * (h - 1)):
                violations += 1
    return CheckResult("height-inequality", violations == 0,
                       f"primes={checked} n_max={n_max} violations={violations}")


def check_realizers(rng: random.Random, exhaustive_len: int = 12,
                    samples: int = 10_000,
                    sample_lens: tuple[int, int] = (13, 16)) -> CheckResult:
    words = itertools.chain(_all_words(exhaustive_len),
                            (_random_word(rng, *sample_lens) for _ in range(samples)))
    count = failures = 0
    for bits in words:
        count += 1
        failures += not realizer_for_word_graph(bits)[2]
    return CheckResult("realizer-validation", failures == 0,
                       f"words={count} failures={failures}")


def check_sturmian_diagnostics(L: int = 10_000, n_max: int = 12,
                               match_len: int = 1000) -> CheckResult:
    fib = fibonacci_word()
    complexity = factor_complexity(fib, L, n_max)
    complexity_ok = complexity == [n + 1 for n in range(1, n_max + 1)]
    bounds = recurrence_bound(fib, L, n_max)
    recurrence_ok = all(b is not None for b in bounds) and all(
        a <= b for a, b in zip(bounds, bounds[1:]))
    mech = mechanical_word(golden_slope(), "slope")
    match_ok = mech.prefix(match_len) == fib.prefix(match_len)
    ok = complexity_ok and recurrence_ok and match_ok
    return CheckResult(
        "sturmian-diagnostics", ok,
        f"L={L} complexity_ok={complexity_ok} recurrence_ok={recurrence_ok} "
        f"mechanical_match={match_ok}")


def check_sturmian_pair(L: int = 100, k_equal: int = 5,
                        k_diff: int = 6) -> CheckResult:
    """Factor sets differ early; age approximations first differ at k=6.

    Exhaustive-oracle verified: the two ages share identical classes through
    k=5, so the divergence demanded by the recurrence theorem's
    contrapositive shows up one level higher.  A level of :func:`word_age`
    does not depend on ``k_max``, so the levels 0..k_equal (k_equal below
    k_diff) are read off the two ages enumerated to k_diff.
    """
    s1 = mechanical_word(ContinuedFraction((2,), (1,)), "slope")
    s2 = mechanical_word(ContinuedFraction((3,), (1,)), "slope")
    factor_diff = any(factors(s1, n, 10 * n).factors != factors(s2, n, 10 * n).factors
                      for n in range(1, 11))
    a1, a2 = word_age(s1, L, k_diff), word_age(s2, L, k_diff)
    equal = all(a1.keys(k) == a2.keys(k) for k in range(k_equal + 1))
    r12, r21 = age_includes(a1, a2), age_includes(a2, a1)
    witnesses_ok = (
        not r12.included_at_scale and not r21.included_at_scale
        and r12.witness is not None and r21.witness is not None
        and embeds(r12.witness, a1.source) and not embeds(r12.witness, a2.source)
        and embeds(r21.witness, a2.source) and not embeds(r21.witness, a1.source))
    ok = factor_diff and equal and witnesses_ok
    return CheckResult(
        "sturmian-pair-ages", ok,
        f"L={L} factor_diff={factor_diff} equal_at_k={k_equal} "
        f"two_way_diff_at_k={k_diff} witnesses_validated={witnesses_ok}")


def check_bounds(fib_ks: tuple[int, ...] = (4, 5, 6)) -> CheckResult:
    """Fibonacci bounds at L = 10k, each certificate re-validated at L and 2L."""
    ones = periodic_word("1")
    ones_bounds = bounds_enumerate(ones, 40, 4)
    keys = {c.key for c in ones_bounds}
    ones_ok = (canonical_key(clique(3)) in keys
               and canonical_key(complete_bipartite(1, 3)) in keys)
    fib = fibonacci_word()
    counts = []
    revalidated = True
    for k in fib_ks:
        L = 10 * k
        certs = bounds_enumerate(fib, L, k)
        counts.append(len(certs))
        revalidated &= all(validate_bound_certificate(cert, fib, scale)
                           for cert in certs for scale in (L, 2 * L))
    growing = all(a < b for a, b in zip(counts, counts[1:]))
    ok = ones_ok and growing and revalidated
    return CheckResult(
        "bound-certificates", ok,
        f"ones_triangle_claw={ones_ok} fib_counts={counts} "
        f"strictly_increasing={growing} revalidated={revalidated}")


def check_jonsson(L: int = 60, k_max: int = 10, n_max: int = 5) -> CheckResult:
    age = word_prime_age(fibonacci_word(), L, k_max)
    report = jonsson_desk_check(age, n_max=n_max)
    level_finite = all(isinstance(c, int) for c in report.level_counts.values())
    cofinal_ok = all(report.cofinality[n] is not None for n in range(n_max + 1))
    ok = level_finite and cofinal_ok
    table = ",".join(f"m({n})={report.cofinality[n]}" for n in range(n_max + 1))
    return CheckResult("jonsson-desk-check", ok,
                       f"L={L} k_max={k_max} level_finite={level_finite} {table}")


def check_determinism(seed: int) -> CheckResult:
    lines = []
    for _ in range(2):
        rng = random.Random(seed)
        result = check_complement_identity(rng, exhaustive_len=5, samples=25,
                                           max_len=40)
        lines.append(result.line())
    ok = lines[0] == lines[1]
    return CheckResult("seeded-determinism", ok, f"identical_reruns={ok}")


# -- profiles -----------------------------------------------------------------


def run_battery(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    """Run every check at the named profile; deterministic given the seed."""
    rng = random.Random(seed)
    if level == "full":
        return [
            check_complement_identity(rng),
            check_reversal_identity(rng),
            check_module_oracle(7),
            check_schmerl_trotter((7, 8)),
            check_height_inequality(8),
            check_realizers(rng),
            check_sturmian_diagnostics(),
            check_sturmian_pair(L=100),
            check_bounds((4, 5, 6)),
            check_jonsson(60, 10, 5),
            check_determinism(seed),
        ]
    if level == "quick":
        return [
            check_complement_identity(rng, exhaustive_len=7, samples=50),
            check_reversal_identity(rng, exhaustive_len=7, samples=30, max_len=40),
            check_module_oracle(6),
            check_schmerl_trotter((7,)),
            check_height_inequality(6),
            check_realizers(rng, exhaustive_len=9, samples=500),
            check_sturmian_diagnostics(L=2000, n_max=8, match_len=500),
            check_sturmian_pair(L=60),
            check_bounds((4, 5)),
            check_jonsson(60, 8, 4),
            check_determinism(seed),
        ]
    raise ValueError(f"unknown verify level {level!r}")


def battery_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
