"""Graphs built from 0-1 words.

The backward construction puts an extra vertex -1 in front of the letter
positions ``0..L-1`` and decides each pair ``i < j`` from the letter at the
larger index: edge iff the letter is 1 and the positions are consecutive, or
the letter is 0 and they are not.  The forward variant appends the extra
vertex at the end and reads the letter at the smaller index instead; the two
constructions swap under letterwise reversal of the word.

Both builders read the rows off the word's letter masks, whose one owner
is ``words._letter_masks`` (bit i of mask c set iff the letter at i is c);
the backward graph's index t holds the letter at t - 1, so its masks
(:func:`letter_masks`) are those shifted up by one index.  A letter 0 joins
its index to every index on the far side of the consecutive one, a letter
1 only to the consecutive one, so each row is a shifted slice of the
zero-letter mask plus at most two single bits, in O(L) big-integer
operations.  The graphs come out symmetric and loop-free by construction
and skip the public constructor's checks.

Not every word-graph age transfers between one-sided and two-sided index
domains; the known obstructions are degree-counting arguments about
infinite graphs (a single 0 on a two-sided domain forces a vertex of
infinite degree).  They have no finite analogue, so nothing here decides
realizability questions; only prefixes of one-sided words are compiled.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, _trusted
from .words import Word, _letter_masks, explicit_word


def _prefix_bits(w: Word | str, L: int | None) -> str:
    if isinstance(w, str) and L is None:
        L = len(w)
    if L is None or L < 0:
        raise GraphError("prefix length must be a nonnegative integer")
    return (explicit_word(w) if isinstance(w, str) else w).prefix(L)


def letter_masks(w: Word | str, L: int | None = None) -> tuple[int, int]:
    """The letters of the backward word graph's indices, as two masks: mask
    c has bit t set iff the letter at index t is c, for t in 1..L (index t
    holds label t - 1; index 0, label -1, has no letter)."""
    return _index_masks(_prefix_bits(w, L))


def _index_masks(bits: str) -> tuple[int, int]:
    """:func:`letter_masks` of the word ``bits``: its letter masks shifted
    up by one index."""
    zeros, ones = _letter_masks(bits)
    return zeros << 1, ones << 1


def graph_of_word(w: Word | str, L: int | None = None) -> Graph:
    """Backward word graph on vertex labels -1, 0, ..., L-1; the row rule's
    only owner."""
    bits = _prefix_bits(w, L)
    zeros, ones = _index_masks(bits)
    # a 0 at index j joins j to every index below j - 1, a 1 only to j - 1
    rows = [(zeros >> 2 << 2) | (ones & 2)]  # index 0 has nothing below
    for i, letter in enumerate(bits, 1):
        below = 1 << (i - 1) if letter == "1" else (1 << (i - 1)) - 1
        rows.append(below | (zeros >> (i + 2) << (i + 2)) | (ones & (2 << i)))
    return _trusted(len(bits) + 1, tuple(rows), tuple(range(-1, len(bits))))


def graph_of_word_forward(w: Word | str, L: int | None = None) -> Graph:
    """Forward variant on labels 0, ..., L-1, L; the letter at the smaller
    index decides each pair."""
    bits = _prefix_bits(w, L)
    n = len(bits) + 1
    zeros, ones = _letter_masks(bits)
    full = (1 << n) - 1
    rows = []
    for i in range(n):
        # a 0 at index i joins i to every index above i + 1, a 1 only to
        # i + 1, and the last index, with no letter, to none above
        above = 2 << i if (ones >> i) & 1 else full >> (i + 2) << (i + 2)
        below = 0 if i == 0 else (zeros & ((1 << (i - 1)) - 1)) | (ones & (1 << (i - 1)))
        rows.append(below | above)
    return _trusted(n, tuple(rows), tuple(range(n)))
