"""Word generators, factor machinery, recurrence diagnostics."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import bit_words
from wordgraphs import words
from wordgraphs.words import (
    ContinuedFraction,
    WordError,
    complement_word,
    explicit_word,
    factor_complexity,
    factor_last_starts,
    fibonacci_word,
    golden_slope,
    mechanical_word,
    periodic_word,
    recurrence_bound,
    reverse_star,
    substitution_word,
    word_from_json,
    word_to_json,
)


def scan_recurrence(p: str, n: int) -> int | None:
    """Oracle: literal window scan, reported under the same L//2 threshold."""
    L = len(p)
    fac = {p[i:i + n] for i in range(L - n + 1)}
    for m in range(n, L + 1):
        if all(fac <= {p[a + i:a + i + n] for i in range(m - n + 1)}
               for a in range(L - m + 1)):
            return m if m <= L // 2 else None
    return None


# -- generators ----------------------------------------------------------------


def test_explicit_and_periodic():
    assert explicit_word("0100").prefix(3) == "010"
    with pytest.raises(WordError):
        explicit_word("0100").prefix(5)
    assert periodic_word("10").prefix(6) == "101010"
    with pytest.raises(WordError):
        periodic_word("")
    with pytest.raises(WordError):
        explicit_word("012")


def test_mechanical_examples():
    assert mechanical_word(Fraction(1, 2)).prefix(6) == "010101"
    assert mechanical_word(Fraction(1, 3)).prefix(6) == "001001"
    with pytest.raises(WordError):
        mechanical_word(Fraction(3, 2))


def test_substitution_examples():
    assert fibonacci_word().prefix(13) == "0100101001001"
    tm = substitution_word({"0": "01", "1": "10"}, "0")
    assert tm.prefix(8) == "01101001"
    with pytest.raises(WordError):
        substitution_word({"0": "0", "1": "0"}, "0")  # non-growing
    with pytest.raises(WordError):
        substitution_word({"0": "10", "1": "0"}, "0")  # not prolongable


def test_every_accepted_short_substitution_grows():
    # images of length <= 3; the rounds are bounded here, so a stalling rule
    # that substitution_word let through fails instead of hanging prefix()
    images = ["".join(p) for k in (1, 2, 3) for p in itertools.product("01", repeat=k)]
    accepted = 0
    for letters in ("0", "1", "01"):
        for chosen in itertools.product(images, repeat=len(letters)):
            rules = dict(zip(letters, chosen))
            for seed in "01":
                try:
                    w = substitution_word(rules, seed)
                except WordError:
                    continue
                accepted += 1
                word = seed
                for _ in range(40):
                    if len(word) >= 40:
                        break
                    nxt = "".join(rules[c] for c in word)
                    assert len(nxt) > len(word), (rules, seed)
                    word = nxt
                assert all(len(w.prefix(n)) == n for n in range(41))
    assert accepted > 0


def test_substitution_prefix_matches_letter_by_letter_join():
    # each iterate maps every letter to its image in one join; the oracle
    # joins the images one letter at a time
    named = [({"0": "01", "1": "0"}, "0"), ({"0": "01", "1": "10"}, "0"),
             ({"0": "01", "1": "10"}, "1")]
    rng = random.Random(26)
    randoms = []
    while len(randoms) < 40:
        rules = {c: "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
                 for c in "01"}
        seed = rng.choice("01")
        if rules[seed].startswith(seed) and rules[seed] != seed:
            randoms.append((rules, seed))
    for rules, seed in named + randoms:
        w = substitution_word(rules, seed)
        for n in (0, 1, 2, 7, 100, 3001):
            assert w.prefix(n) == oracles.join_substitution_prefix(rules, seed, n), \
                (rules, seed, n)


@pytest.mark.parametrize("rules,message", [
    ({"0": "01"}, "letter '1' is in a rule image but has no rule"),
    ({"1": "10"}, "letter '0' is in a rule image but has no rule"),
    ({"0": "01", "01": "1"}, "rule letter '01' must be '0' or '1'"),
    ({"0": "01", "": "1"}, "rule letter '' must be '0' or '1'"),
    ({"0": "01", "1": ""}, "the image of '1' must be nonempty"),
])
def test_substitution_rules_name_a_bad_letter(rules, message):
    with pytest.raises(WordError, match=message):
        substitution_word(rules, "0")
    with pytest.raises(WordError, match=message):
        word_from_json({"kind": "substitution", "rules": rules, "seed": "0"})


def test_golden_slope_matches_fibonacci_substitution():
    # characteristic Sturmian word: intercept equal to the slope
    mech = mechanical_word(golden_slope(), "slope")
    assert mech.prefix(1000) == fibonacci_word().prefix(1000)


def test_golden_slope_intercept_zero_is_the_shifted_word():
    # with intercept 0 the mechanical word carries one extra leading 0
    mech = mechanical_word(golden_slope())
    assert mech.prefix(200) == ("0" + fibonacci_word().prefix(199))


def test_integer_prefix_matches_fraction_floors():
    slopes = [Fraction(1, 2), Fraction(2, 7), Fraction(5, 13), Fraction(99, 100),
              Fraction(1, 97)]
    slopes += [cf.convergent(depth) for depth in range(1, 12)
               for cf in (golden_slope(), ContinuedFraction((3,), (1,)),
                          ContinuedFraction((1, 2), (3, 1)))]
    intercepts = [Fraction(0), Fraction(1, 5), Fraction(-1, 5), Fraction(-7, 3),
                  Fraction(1), Fraction(9, 4), Fraction(-3), Fraction(1346269, 3524578)]
    for slope, intercept in itertools.product(slopes, intercepts):
        for n in (0, 1, 2, 61, 300):
            assert words._mechanical_prefix(slope, intercept, n) == \
                oracles.fraction_mechanical_prefix(slope, intercept, n)


def test_mechanical_words_with_negative_and_large_intercepts():
    for slope in (Fraction(3, 8), golden_slope()):
        for intercept in (Fraction(-5, 2), Fraction(7, 3)):
            value = slope if isinstance(slope, Fraction) else slope.convergent(30)
            assert mechanical_word(slope, intercept).prefix(200) == \
                oracles.fraction_mechanical_prefix(value, intercept, 200)


def test_continued_fraction_convergent():
    cf = ContinuedFraction(head=(2,), tail=(1,))
    assert cf.convergent(1) == Fraction(1, 2)
    assert cf.convergent(2) == Fraction(1, 3)
    # convergents approach 1/phi^2 = (3 - sqrt(5)) / 2
    assert abs(float(cf.convergent(40)) - 0.3819660112501051) < 1e-12



@pytest.mark.parametrize("head", [(2,), (1, 2), (2, 3, 1, 4), (1,) * 12, (3, 1, 1, 7, 2)])
@pytest.mark.parametrize("intercept", [Fraction(0), "slope", Fraction(1, 5)])
def test_finite_continued_fraction_is_its_rational_word(head, intercept):
    # a finite expansion stops at its exact depth, also where the prefixes
    # of two consecutive convergents still differ
    cf = ContinuedFraction(head=head)
    rational = mechanical_word(cf.convergent(len(head)), intercept)
    assert mechanical_word(cf, intercept).prefix(300) == rational.prefix(300)

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
def test_prefix_coherence_all_generators(n, m):
    lo, hi = min(n, m), max(n, m)
    for w in (periodic_word("10"), fibonacci_word(),
              mechanical_word(Fraction(2, 7)),
              mechanical_word(golden_slope(), "slope")):
        assert w.prefix(hi)[:lo] == w.prefix(lo)


@given(bit_words)
def test_complement_word_is_involution(bits):
    w = explicit_word(bits)
    assert complement_word(complement_word(w)) is w
    if bits:
        flipped = complement_word(w).prefix(len(bits))
        assert all(a != b for a, b in zip(bits, flipped))


@given(bit_words)
def test_reverse_star_twice_is_identity(bits):
    w = explicit_word(bits)
    L = len(bits)
    assert reverse_star(reverse_star(w, L), L).prefix(L) == bits


def test_reverse_star_examples():
    assert reverse_star(explicit_word("0110"), 4).prefix(4) == "0110"
    assert reverse_star(explicit_word("100"), 3).prefix(3) == "001"


# -- factors -------------------------------------------------------------------


def test_factor_last_starts_examples():
    assert factor_last_starts(periodic_word("01"), 6, 2)[-1].keys() == {"01", "10"}
    assert factor_last_starts(periodic_word("1"), 10, 3)[-1].keys() == {"111"}
    assert factor_last_starts(fibonacci_word(), 13, 2)[-1].keys() == {"00", "01", "10"}
    with pytest.raises(WordError):
        factor_last_starts(periodic_word("1"), 3, 5)


@given(bit_words)
def test_factor_complexity_counts_the_factor_sets(bits):
    w = explicit_word(bits)
    L = len(bits)
    assert factor_complexity(w, L, L // 2) == [
        len(oracles.factor_set(bits, n)) for n in range(1, L // 2 + 1)]


def test_factor_complexity():
    fib = factor_complexity(fibonacci_word(), 200, 10)
    assert fib == [n + 1 for n in range(1, 11)]
    assert factor_complexity(periodic_word("01"), 100, 8) == [2] * 8
    assert factor_complexity(periodic_word("1"), 100, 5) == [1] * 5


def _scanned_last_starts(p: str, n: int) -> dict[str, int]:
    """Each length-n factor of ``p`` at its last start, scanning the starts
    from the last one down."""
    last: dict[str, int] = {}
    for i in range(len(p) - n, -1, -1):
        last.setdefault(p[i:i + n], i)
    return last


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_factor_last_starts_match_the_factor_sets_and_a_scan(seed):
    # Fibonacci holds n + 1 factors of length n, so its levels outgrow the
    # mask limit at length 128; a random word of about 300 letters, near
    # length 8.  The one factor pass reads them all the same way.
    if seed is None:
        p, n_max = fibonacci_word().prefix(300), 140
    else:
        rng = random.Random(seed)
        p = "".join(rng.choice("01") for _ in range(rng.randint(280, 320)))
        n_max = 20
    w, L = explicit_word(p), len(p)
    levels = factor_last_starts(w, L, n_max)
    assert [set(level) for level in levels] == [
        oracles.factor_set(p, n) for n in range(1, n_max + 1)]
    assert levels == [_scanned_last_starts(p, n) for n in range(1, n_max + 1)]
    sizes = list(map(len, levels))
    assert sizes[0] <= words._MASK_LEVEL_LIMIT < sizes[-1]


@given(bit_words)
def test_factor_last_starts_on_short_words(bits):
    # every n_max: below L the slices of the one pass repeat, so a level is
    # right only if they are read in start order
    w, L = explicit_word(bits), len(bits)
    scanned = [_scanned_last_starts(bits, n) for n in range(1, L + 1)]
    for n_max in range(L + 1):
        assert factor_last_starts(w, L, n_max) == scanned[:n_max], n_max
    with pytest.raises(WordError):
        factor_last_starts(w, L, L + 1)


def test_factor_last_starts_read_no_letter_mask(monkeypatch):
    def never(p):
        raise AssertionError("a letter mask was read")

    monkeypatch.setattr(words, "_letter_masks", never)
    for p, n_max in ((fibonacci_word().prefix(300), 140), ("0110100110010110", 9),
                     ("0", 1), ("", 0)):
        assert factor_last_starts(explicit_word(p), len(p), n_max) == [
            _scanned_last_starts(p, n) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("reader", [factor_last_starts, factor_complexity,
                                    recurrence_bound])
def test_factor_readers_refuse_a_negative_length(reader):
    with pytest.raises(WordError, match="factor length -1 is outside 0..10"):
        reader(fibonacci_word(), 10, -1)


def test_recurrence_bound_examples():
    # least window length containing both length-2 factors of 0101... is 3
    assert recurrence_bound(periodic_word("01"), 100, 2) == [2, 3]
    assert recurrence_bound(periodic_word("1"), 10, 1) == [1]
    # 100111...: the factor 10 never recurs, so no honest bound exists
    w = explicit_word("100" + "1" * 97)
    assert recurrence_bound(w, 100, 2)[1] is None
    # the last 1 of 010100 starts 3 letters from the end, which no shorter
    # window reaches; in 0100 it is 3 letters from the end of 4
    assert recurrence_bound(explicit_word("010100"), 6, 1) == [3]
    assert recurrence_bound(explicit_word("0100"), 4, 1) == [None]
    # n = L: the one factor is the whole prefix, which certifies nothing
    assert recurrence_bound(periodic_word("1"), 1, 1) == [None]
    assert recurrence_bound(periodic_word("01"), 10, 10)[9] is None
    # n = L - 1: "11" holds its one 1-letter factor in every 1-letter window
    assert recurrence_bound(periodic_word("1"), 2, 1) == [1]
    assert recurrence_bound(periodic_word("1"), 10, 9)[8] is None
    assert recurrence_bound(periodic_word("01"), 10, 9)[8] is None
    # no level asked, none given; a factor longer than the prefix is refused
    assert recurrence_bound(fibonacci_word(), 10, 0) == []
    with pytest.raises(WordError):
        recurrence_bound(periodic_word("01"), 10, 11)


def _assert_recurrence_matches_scan(bits):
    w = explicit_word(bits)
    assert recurrence_bound(w, len(bits), len(bits)) == [
        scan_recurrence(bits, n) for n in range(1, len(bits) + 1)], bits


@settings(max_examples=25, deadline=None)
@given(bit_words)
def test_recurrence_bound_matches_window_scan(bits):
    _assert_recurrence_matches_scan(bits)


def test_positional_recurrence_matches_window_scan(monkeypatch):
    # with the mask limit at 0 every level takes the positional pass, here
    # on words short enough to scan: every word of 1 to 8 letters, and
    # seeded random words of up to 40
    monkeypatch.setattr(words, "_MASK_LEVEL_LIMIT", 0)
    for n in range(1, 9):
        for letters in itertools.product("01", repeat=n):
            _assert_recurrence_matches_scan("".join(letters))
    rng = random.Random(35)
    for _ in range(25):
        _assert_recurrence_matches_scan(
            "".join(rng.choice("01") for _ in range(rng.randint(9, 40))))


@pytest.mark.parametrize("seed", range(4))
def test_word_diagnostics_across_the_level_switch(seed, monkeypatch):
    # a random word's levels outgrow the mask limit before length 12, and
    # Fibonacci's, with n + 1 factors, at length 128: the diagnostics read
    # masks below that level, and from it on the complexity counts the
    # levels of one factor pass and the recurrence takes a positional pass
    # per level; both are held to the masks read at every level, with the
    # limit raised past each level's count.  A periodic word holds at most
    # its period's 80 to 120 factors, so its 40 levels are all masks, and
    # the factor pass never runs.
    limit, one_pass = words._MASK_LEVEL_LIMIT, words._positional_recurrence
    factor_pass = words._factor_levels
    rng = random.Random(seed)
    L = rng.randint(2000, 3000)
    bits = "".join(rng.choice("01") for _ in range(L))
    pattern = "".join(rng.choice("01") for _ in range(rng.randint(80, 120)))
    for p, n_max, switches in ((bits, 12, True), ((pattern * L)[:L], 40, False),
                               (fibonacci_word().prefix(L), 130 + seed, True)):
        w = explicit_word(p)
        sizes = [len(oracles.factor_set(p, n)) for n in range(1, n_max + 1)]
        assert (max(sizes) > limit) == switches
        first = next((n for n, size in enumerate(sizes, 1) if size > limit),
                     n_max + 1)
        monkeypatch.setattr(words, "_MASK_LEVEL_LIMIT", max(sizes))
        by_masks = recurrence_bound(w, L, n_max)
        monkeypatch.setattr(words, "_MASK_LEVEL_LIMIT", limit)
        passes, entries = [], []
        monkeypatch.setattr(words, "_positional_recurrence",
                            lambda p, n: passes.append(n) or one_pass(p, n))
        monkeypatch.setattr(words, "_factor_levels",
                            lambda *args: entries.append(args) or factor_pass(*args))
        assert factor_complexity(w, L, n_max) == sizes
        assert recurrence_bound(w, L, n_max) == by_masks
        assert passes == list(range(first, n_max + 1))
        assert len(entries) == switches


def test_recurrence_bound_window_property():
    w = fibonacci_word()
    L = 400
    m = recurrence_bound(w, L, 3)[2]
    assert m is not None
    p = w.prefix(L)
    fac = oracles.factor_set(p, 3)
    for a in range(0, L - m + 1, 7):
        window = p[a:a + m]
        assert {window[i:i + 3] for i in range(m - 2)} == fac


def test_fibonacci_recurrence_bounds_nondecreasing():
    w = fibonacci_word()
    bounds = recurrence_bound(w, 400, 5)
    assert bounds == [3, 6, 10, 11, 17]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))


def test_fibonacci_uniform_recurrence_evidence_large_scale():
    w = fibonacci_word()
    bounds = recurrence_bound(w, 100_000, 20)
    assert all(m is not None for m in bounds)
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))


def test_prefix_coherence_at_ten_thousand():
    for w in (fibonacci_word(), mechanical_word(golden_slope(), "slope"),
              periodic_word("0110")):
        long = w.prefix(10_000)
        assert long[:137] == w.prefix(137)
        assert long[:9_999] == w.prefix(9_999)


# -- serialization ---------------------------------------------------------------


def test_round_trip_json_descriptors():
    words = [
        (explicit_word("0101"), 4),
        (periodic_word("10"), 64),
        (mechanical_word(Fraction(1, 3), Fraction(1, 7)), 64),
        (mechanical_word(golden_slope(), "slope"), 64),
        (substitution_word({"0": "01", "1": "0"}, "0"), 64),
        (complement_word(fibonacci_word()), 64),
    ]
    for w, length in words:
        back = word_from_json(word_to_json(w))
        assert back.prefix(length) == w.prefix(length)


@pytest.mark.parametrize("doc", [
    "0", "[1]", '"01"', '{"kind": "explicit"}', '{"kind": "explicit", "bits": 5}',
    '{"kind": "mechanical"}', '{"kind": "mechanical", "slope": [1]}',
    '{"kind": "mechanical", "slope": {"head": ["a"]}}',
    '{"kind": "mechanical", "slope": "1/3", "intercept": [1]}',
    # no finite fraction: not Fraction's ZeroDivisionError or OverflowError
    '{"kind": "mechanical", "slope": "1/0"}', '{"kind": "mechanical", "slope": Infinity}',
    '{"kind": "mechanical", "slope": NaN}',
    '{"kind": "mechanical", "slope": "1/3", "intercept": "1/0"}',
    '{"kind": "mechanical", "slope": "1/3", "intercept": -Infinity}',
    '{"kind": "substitution", "rules": {"0": "01"}}',
    '{"kind": "substitution", "rules": {"0": 1}, "seed": "0"}',
    '{"kind": "complement", "of": 3}', '{"kind": "complement", "of": {}}',
    # a key the kind does not read is named, never ignored
    '{"kind": "mechanical", "slope": "1/3", "intercpt": "1/2"}',
    '{"kind": "mechanical", "slope": {"head": [2], "tale": [1]}}',
    '{"kind": "explicit", "bits": "01", "pattern": "1"}',
    '{"kind": "complement", "of": {"kind": "periodic", "pattern": "01", "seed": "0"}}',
    # a boolean is not a number
    '{"kind": "mechanical", "slope": "1/3", "intercept": true}',
    '{"kind": "mechanical", "slope": false}',
    '{"kind": "mechanical", "slope": {"head": [true], "tail": [1]}}',
    '{"kind": [], "bits": "01"}',
])
def test_malformed_json_descriptor_is_a_word_error(doc):
    with pytest.raises(WordError):
        word_from_json(doc)
