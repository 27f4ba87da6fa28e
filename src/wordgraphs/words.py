"""0-1 words: generators, factors, recurrence and complexity diagnostics.

A word is a generator descriptor (explicit bits, periodic pattern, mechanical
with exact rational or continued-fraction slope, or substitution fixed point)
able to produce any prefix on demand.  Prefixes are deterministic and
coherent: ``prefix(n)`` is always an initial segment of ``prefix(m)`` for
``n <= m``.  Uniform recurrence is only ever certified at a scale ``(n, L)``;
the infinite property is not decidable from a prefix and no function here
claims it.

Mechanical words are computed in integers: with slope a/b and intercept
c/d, ``floor(i*slope + intercept)`` is ``(c*b + i*a*d) // (b*d)``, exactly.
Irrational slopes are given as continued fractions; letters are emitted
once two consecutive convergents (which bracket the limit slope) produce
identical floor sequences, which pins the exact prefix by monotonicity of
``floor(i*slope + intercept)`` in the slope.

The complexity p(n) and the recurrence bounds R(n) read, off one walk over
the levels, the start masks of the distinct length-n factors: bit i of a
factor's mask is set when the factor starts at i, and a length-(n+1)
factor's mask is its length-n prefix's mask ANDed with the next letter's
mask shifted right by n.  p(n) is the number of nonzero masks; R(n) takes
each factor's first start, last start and longest gap between starts off
its mask.  A level costs about p(n) big-integer operations on L bits,
against L interpreted steps for a pass over the positions, so the words
the generators give (p(n) = n + 1 for Sturmian words, about 3n for
Thue-Morse) cost little.  From the first level holding more than
``_MASK_LEVEL_LIMIT`` factors on, the positional pass is taken instead,
which also bounds the masks' memory on a dense word.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

_MAX_CF_DEPTH = 512


class WordError(ValueError):
    """Bad generator parameters or out-of-range prefix requests."""


@dataclass(frozen=True)
class ContinuedFraction:
    """Slope ``[0; a1, a2, ...]`` with an optionally repeating tail.

    ``head`` lists the leading partial quotients; ``tail`` repeats forever
    after them (empty tail means the fraction is finite, i.e. rational).
    """

    head: tuple[int, ...]
    tail: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.head and not self.tail:
            raise WordError("continued fraction needs at least one quotient")
        if any(q < 1 for q in self.head + self.tail):
            raise WordError("partial quotients must be positive")

    def quotient(self, k: int) -> int:
        if k < len(self.head):
            return self.head[k]
        if not self.tail:
            raise IndexError(k)
        return self.tail[(k - len(self.head)) % len(self.tail)]

    def depth_limit(self) -> int | None:
        return len(self.head) if not self.tail else None

    def convergent(self, depth: int) -> Fraction:
        """Value of ``[0; a1..a_depth]`` via the standard recurrence."""
        h_prev, h = 1, 0
        k_prev, k = 0, 1
        for i in range(depth):
            a = self.quotient(i)
            h_prev, h = h, a * h + h_prev
            k_prev, k = k, a * k + k_prev
        return Fraction(h, k)


@dataclass(frozen=True)
class FactorSet:
    """Distinct length-``length`` blocks seen in a prefix of given length."""

    length: int
    prefix_length: int
    factors: frozenset[str]


def _check_bits(bits: str, what: str) -> str:
    if any(c not in "01" for c in bits):
        raise WordError(f"{what} must be over the alphabet 0/1")
    return bits


@dataclass(frozen=True)
class Word:
    """Immutable 0-1 word handle; ``prefix(n)`` yields the first n letters."""

    kind: str
    params: tuple
    _buf: list = field(default_factory=lambda: [""], compare=False,
                       repr=False, hash=False)

    def prefix(self, n: int) -> str:
        if n < 0:
            raise WordError("prefix length must be nonnegative")
        if n > len(self._buf[0]):
            grown = _GENERATORS[self.kind](self.params, n)
            if not grown.startswith(self._buf[0]):
                raise AssertionError("generator prefix coherence violated")
            self._buf[0] = grown
        return self._buf[0][:n]


# -- generators ---------------------------------------------------------------


def _gen_explicit(params: tuple, n: int) -> str:
    (bits,) = params
    if n > len(bits):
        raise WordError(f"explicit word has only {len(bits)} letters")
    return bits[:n]


def _gen_periodic(params: tuple, n: int) -> str:
    (pattern,) = params
    reps = -(-n // len(pattern))
    return (pattern * reps)[:n]


def _mechanical_prefix(slope: Fraction, intercept: Fraction, n: int) -> str:
    a, b = slope.numerator, slope.denominator
    c, d = intercept.numerator, intercept.denominator
    # floor(k a/b + c/d) = (c b + k a d) // (b d), exactly; // rounds a
    # negative value down, as Fraction.__floor__ does
    den = b * d
    floors = [q // den for q in range(c * b, c * b + (n + 1) * a * d, a * d)]
    return "".join(str(floors[k + 1] - floors[k]) for k in range(n))


def _gen_mechanical(params: tuple, n: int) -> str:
    slope, intercept = params
    # an exact slope is its own depth-1 convergent
    if isinstance(slope, Fraction):
        exact_depth, convergent = 1, lambda depth: slope
    else:
        exact_depth, convergent = slope.depth_limit(), slope.convergent
    prev = None
    for depth in range(1, _MAX_CF_DEPTH + 1):
        value = convergent(depth)
        rho = value if intercept == "slope" else intercept
        cur = _mechanical_prefix(value, rho, n)
        if depth == exact_depth or cur == prev:
            return cur
        prev = cur
    raise WordError("continued fraction did not stabilize")


def _gen_substitution(params: tuple, n: int) -> str:
    rules_t, seed = params
    image = dict(rules_t).__getitem__
    word = seed
    # iterates are nested prefixes, each longer (substitution_word's checks)
    while len(word) < n:
        word = "".join(map(image, word))
    return word[:n]


_GENERATORS = {
    "explicit": _gen_explicit,
    "periodic": _gen_periodic,
    "mechanical": _gen_mechanical,
    "substitution": _gen_substitution,
}


def explicit_word(bits: str) -> Word:
    return Word("explicit", (_check_bits(bits, "explicit word"),))


def periodic_word(pattern: str) -> Word:
    if not pattern:
        raise WordError("periodic pattern must be nonempty")
    return Word("periodic", (_check_bits(pattern, "pattern"),))


def mechanical_word(slope: Fraction | ContinuedFraction,
                    intercept: Fraction | str = Fraction(0)) -> Word:
    """Letters ``floor((i+1)s + r) - floor(is + r)``, exact arithmetic.

    ``intercept="slope"`` uses the slope itself, which yields characteristic
    Sturmian words (the fixed points of the classical substitutions).
    """
    if isinstance(slope, Fraction) and not 0 < slope < 1:
        raise WordError("slope must satisfy 0 < slope < 1")
    if isinstance(slope, ContinuedFraction) and not slope.tail:
        value = slope.convergent(len(slope.head))
        if not 0 < value < 1:
            raise WordError("slope must satisfy 0 < slope < 1")
    if isinstance(intercept, str) and intercept != "slope":
        raise WordError("intercept must be a Fraction or the string 'slope'")
    return Word("mechanical", (slope, intercept))


def substitution_word(rules: dict[str, str], seed: str) -> Word:
    for letter, image in rules.items():
        if letter not in ("0", "1"):
            raise WordError(f"rule letter {letter!r} must be '0' or '1'")
        if not image:
            raise WordError(f"the image of {letter!r} must be nonempty")
        _check_bits(image, "rule image")
    missing = sorted({c for image in rules.values() for c in image} - set(rules))
    if missing:
        raise WordError(f"letter {missing[0]!r} is in a rule image but has no rule")
    if len(seed) != 1 or seed not in rules:
        raise WordError("seed must be a single letter with a rule")
    if not rules[seed].startswith(seed):
        raise WordError("substitution must be prolongable on the seed")
    # every image is nonempty and the seed's starts with the seed, so the
    # iterates grow unless the seed's image is the seed alone
    if rules[seed] == seed:
        raise WordError("substitution does not grow from this seed")
    return Word("substitution", (tuple(sorted(rules.items())), seed))


def fibonacci_word() -> Word:
    return substitution_word({"0": "01", "1": "0"}, "0")


def golden_slope() -> ContinuedFraction:
    """[0; 2, 1, 1, 1, ...], the slope whose characteristic word is Fibonacci."""
    return ContinuedFraction(head=(2,), tail=(1,))


def complement_word(w: Word) -> Word:
    if w.kind == "complement":
        return w.params[0]
    return Word("complement", (w,))


def _gen_complement(params: tuple, n: int) -> str:
    (inner,) = params
    return "".join("1" if c == "0" else "0" for c in inner.prefix(n))


_GENERATORS["complement"] = _gen_complement


def reverse_star(w: Word, L: int) -> Word:
    """Letterwise reversal of the length-L prefix, as a finite word."""
    return explicit_word(w.prefix(L)[::-1])


# -- factor machinery ---------------------------------------------------------


def factors(w: Word, n: int, L: int) -> FactorSet:
    """All distinct length-n contiguous blocks of prefix(L)."""
    if n > L:
        raise WordError("factor length exceeds prefix length")
    p = w.prefix(L)
    return FactorSet(
        length=n, prefix_length=L,
        factors=frozenset(p[i:i + n] for i in range(L - n + 1)))


# Masks or positions.  Timed level by level on seeded periodic and random
# words, a recurrence bound's masks cost 0.6 of a pass at 128 factors and a
# whole pass near 200 (L = 10**4) or 300 (L = 10**5), and a complexity
# level, which only builds its masks, 0.06 of a pass at 128.  The limit
# sits below both crossings, admits a random word's 128 factors of length
# 7, and keeps a level's masks to at most 128 * (L + 1) bits.
_MASK_LEVEL_LIMIT = 128


def _start_masks(p: str):
    """For n = 0, 1, 2, ..., without end, the start masks of the distinct
    length-n factors of ``p`` (bit i set when the factor starts at i), in no
    order; past n = len(p) the levels are empty."""
    ones = int(p[::-1], 2) if p else 0
    letters = (ones ^ ((1 << len(p)) - 1), ones)
    masks = [(1 << (len(p) + 1)) - 1]  # the empty factor starts everywhere
    for n in itertools.count(1):
        yield masks
        # a factor's starts: its prefix's, where the next letter follows
        shifted = [m >> (n - 1) for m in letters]
        masks = [x for mask in masks for s in shifted if (x := mask & s)]


def _by_level(p: str, n_max: int, from_masks, from_pass) -> list:
    """``from_masks(masks, n)`` for n = 1, 2, ... off one walk of
    :func:`_start_masks`, up to the first level holding more than
    ``_MASK_LEVEL_LIMIT`` factors, then ``from_pass(n)`` up to ``n_max``."""
    out = []
    for n, masks in enumerate(itertools.islice(_start_masks(p), 1, n_max + 1), 1):
        if len(masks) > _MASK_LEVEL_LIMIT:
            break
        out.append(from_masks(masks, n))
    return out + [from_pass(n) for n in range(len(out) + 1, n_max + 1)]


def factor_complexity(w: Word, L: int, n_max: int) -> list[int]:
    """p(n) = number of distinct length-n factors of prefix(L), n = 1..n_max."""
    if n_max > L // 2:
        raise WordError("n_max beyond L/2; counts would not have stabilized")
    p = w.prefix(L)
    return _by_level(p, n_max, lambda masks, n: len(masks),
                     lambda n: len({p[i:i + n] for i in range(L - n + 1)}))


def recurrence_bound(w: Word, L: int, n_max: int) -> list[int | None]:
    """R(n) for n = 1..n_max: the least m with every length-n factor in every
    length-m window of prefix(L), reported only when m <= L // 2 (else None),
    so the certificate is supported by many windows; the whole prefix
    trivially contains its own factors, which certifies nothing.
    """
    if n_max > L:
        raise WordError("factor length exceeds prefix length")
    p = w.prefix(L)
    return _by_level(p, n_max, lambda masks, n: _mask_recurrence(masks, n, L),
                     lambda n: _positional_recurrence(p, n))


def _mask_recurrence(masks: list[int], n: int, L: int) -> int | None:
    """R(n) from the start masks of the length-n factors."""
    # a window must reach a factor's first end, reach from its last start
    # to the end, and span each gap between consecutive starts; the first
    # two take a few operations per mask, so they may end it before any gap
    firsts = [(mask & -mask).bit_length() - 1 for mask in masks]
    m = max(max(firsts) + n, L + 1 - min(mask.bit_length() for mask in masks))
    if m > L // 2:
        return None
    for mask, first in zip(masks, firsts):
        m = max(m, n + _longest_zero_run(mask >> first))
        if m > L // 2:
            return None
    return m


def _longest_zero_run(x: int) -> int:
    """The longest run of zeros below the top bit of ``x > 0``, found in
    O(log run) big-integer operations: bit i of ``runs`` is set where
    ``length`` zeros start at i; ``length`` doubles while such runs remain,
    then grows by halving steps."""
    runs, length = x ^ ((1 << x.bit_length()) - 1), 1
    if not runs:
        return 0
    while longer := runs & (runs >> length):
        runs, length = longer, 2 * length
    step = length // 2
    while step:
        if longer := runs & (runs >> step):
            runs, length = longer, length + step
        step //= 2
    return length


def _positional_recurrence(p: str, n: int) -> int | None:
    """R(n) on ``p`` in one pass over its positions."""
    L = len(p)
    latest: dict[str, int] = {}  # factor -> its latest start so far
    m = n
    for i in range(L - n + 1):
        f = p[i:i + n]
        prev = latest.get(f)
        need = i + n if prev is None else i - prev + n - 1
        if need > m:
            m = need
        latest[f] = i
    for i in latest.values():
        if L - i > m:
            m = L - i
    return m if m <= L // 2 else None


# -- serialization -------------------------------------------------------------


def word_to_json(w: Word) -> str:
    return json.dumps(_descriptor(w), sort_keys=True)


def _descriptor(w: Word) -> dict:
    if w.kind == "explicit":
        return {"kind": "explicit", "bits": w.params[0]}
    if w.kind == "periodic":
        return {"kind": "periodic", "pattern": w.params[0]}
    if w.kind == "mechanical":
        slope, intercept = w.params
        if isinstance(slope, Fraction):
            s: object = str(slope)
        else:
            s = {"head": list(slope.head), "tail": list(slope.tail)}
        r = "slope" if intercept == "slope" else str(intercept)
        return {"kind": "mechanical", "slope": s, "intercept": r}
    if w.kind == "substitution":
        rules, seed = w.params
        return {"kind": "substitution", "rules": dict(rules), "seed": seed}
    if w.kind == "complement":
        return {"kind": "complement", "of": _descriptor(w.params[0])}
    raise WordError(f"unknown word kind {w.kind!r}")


def parse_fraction(value: str | int | float, what: str) -> Fraction:
    """``Fraction(value)`` for the value of ``what``; a value naming no finite
    fraction (``"1/0"``, an infinite float, ``"x"``) is a :class:`WordError`
    naming both."""
    try:
        return Fraction(value)
    except (ValueError, ArithmeticError):
        raise WordError(f"{what} must be a finite fraction, not {value!r}") from None


# the keys each descriptor kind reads, besides "kind"
_DESCRIPTOR_KEYS = {"explicit": {"bits"}, "periodic": {"pattern"},
                    "mechanical": {"slope", "intercept"},
                    "substitution": {"rules", "seed"}, "complement": {"of"}}


def reject_unknown_keys(data: dict, allowed: set[str], what: str) -> None:
    """A :class:`WordError` naming every key of ``data`` outside ``allowed``."""
    unknown = sorted(map(str, set(data) - allowed))
    if unknown:
        raise WordError(f"unknown {what}: " + ", ".join(unknown))


def _field(data: dict, name: str, kinds: type | tuple[type, ...]):
    if name not in data:
        raise WordError(f"{data['kind']} word descriptor lacks {name!r}")
    value = data[name]
    # JSON true and false are ints to isinstance, and no field reads them
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise WordError(f"{data['kind']} word descriptor: bad {name!r}")
    return value


def word_from_json(doc: str | dict) -> Word:
    data = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(data, dict):
        raise WordError("word descriptor must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_KEYS:
        raise WordError(f"unknown word kind {kind!r}")
    reject_unknown_keys(data, _DESCRIPTOR_KEYS[kind] | {"kind"},
                        f"{kind} word descriptor keys")
    if kind == "explicit":
        return explicit_word(_field(data, "bits", str))
    if kind == "periodic":
        return periodic_word(_field(data, "pattern", str))
    if kind == "mechanical":
        raw = _field(data, "slope", (str, int, float, dict))
        if isinstance(raw, dict):
            reject_unknown_keys(raw, {"head", "tail"},
                                "mechanical word descriptor 'slope' keys")
            head, tail = raw.get("head", []), raw.get("tail", [])
            # type(a) is int: a bool is no quotient
            if not all(isinstance(q, list) and all(type(a) is int for a in q)
                       for q in (head, tail)):
                raise WordError("mechanical word descriptor: bad 'slope'")
            slope: Fraction | ContinuedFraction = ContinuedFraction(
                head=tuple(head), tail=tuple(tail))
        else:
            slope = parse_fraction(raw, "mechanical word descriptor 'slope'")
        rho = _field(data, "intercept", (str, int, float)) if "intercept" in data else "0"
        intercept: Fraction | str = ("slope" if rho == "slope" else parse_fraction(
            rho, "mechanical word descriptor 'intercept'"))
        return mechanical_word(slope, intercept)
    if kind == "substitution":
        rules = _field(data, "rules", dict)
        if not all(isinstance(image, str) for image in rules.values()):
            raise WordError("substitution word descriptor: bad 'rules'")
        return substitution_word(dict(rules), _field(data, "seed", str))
    return complement_word(word_from_json(_field(data, "of", dict)))
