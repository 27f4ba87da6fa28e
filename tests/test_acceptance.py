"""Acceptance gate: the eleven desk-scale criteria at their stated scales.

Each test runs one criterion through the shared check battery (exact
tolerances, no approximation knobs) and prints one pass/fail line; run with
``pytest -s tests/test_acceptance.py`` to watch the matrix scroll by.

Two scale parameters were corrected against exhaustive oracles and are
asserted at their computed values rather than the drafted guesses: the
Sturmian pair's age approximations provably coincide through size 5 (first
divergence at size 6, both directions), and the Fibonacci cofinality value
m(5) first exists when members are enumerated to size 10.
"""

import random

from wordgraphs import verify as V
from wordgraphs.cli import main


def _report(name: str, result: V.CheckResult) -> None:
    print(f"\nACCEPTANCE {name}: {result.line()}")
    assert result.passed, result.line()


def test_criterion_01_complement_identity():
    # 200 random words of length <= 100 plus all words of length <= 8, exact
    result = V.check_complement_identity(random.Random(0), exhaustive_len=8,
                                         samples=200, max_len=100)
    _report("criterion-1", result)


def test_criterion_02_reversal_identity():
    # all words of length <= 8 and 100 random longer ones, via canonical keys
    result = V.check_reversal_identity(random.Random(1), exhaustive_len=8,
                                       samples=100, max_len=60)
    _report("criterion-2", result)


def test_criterion_03_module_oracle_equivalence():
    # all 1044 isomorphism classes on 7 vertices and everything smaller
    result = V.check_module_oracle(7)
    _report("criterion-3", result)
    assert "classes=1253" in result.detail  # orders 0..7: 1+1+2+4+11+34+156+1044


def test_criterion_04_schmerl_trotter_at_seven_and_eight():
    result = V.check_schmerl_trotter((7, 8))
    _report("criterion-4", result)
    assert "primes=4930" in result.detail  # 260 + 4670


def test_criterion_05_height_inequality_through_eight():
    result = V.check_height_inequality(8)
    _report("criterion-5", result)
    assert "primes=4963" in result.detail  # orders 2..8: 2+0+1+4+26+260+4670


def test_criterion_06_realizer_construction():
    # exhaustive through length 12, ten thousand sampled words at 13..16
    result = V.check_realizers(random.Random(2), exhaustive_len=12,
                               samples=10_000, sample_lens=(13, 16))
    _report("criterion-6", result)


def test_criterion_07_sturmian_diagnostics():
    result = V.check_sturmian_diagnostics(L=10_000, n_max=12, match_len=1000)
    _report("criterion-7", result)


def test_criterion_08_factor_age_consistency():
    # factor sets differ by n = 10; ages coincide exactly through k = 5
    # (oracle-verified) and differ in both directions at k = 6, L = 100
    result = V.check_sturmian_pair(L=100, k_equal=5, k_diff=6)
    _report("criterion-8", result)


def test_criterion_09_bound_certificates():
    result = V.check_bounds((4, 5, 6))
    _report("criterion-9", result)
    assert "fib_counts=[1, 2, 22]" in result.detail


def test_criterion_10_jonsson_desk_check():
    # level-finite prime members; m(n) defined for n <= 5 once the age is
    # enumerated to size 10 (m(5) = 10; at size 8 the table still stops)
    result = V.check_jonsson(L=60, k_max=10, n_max=5)
    _report("criterion-10", result)
    assert "m(5)=10" in result.detail


def test_criterion_11_cli_verify_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["verify", "--seed", "11", "--out", str(out1)]) == 0
    assert main(["verify", "--seed", "11", "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    print("\nACCEPTANCE criterion-11: PASS  cli-verify-determinism  "
          f"(bytes={len(b1)} identical=True)")
