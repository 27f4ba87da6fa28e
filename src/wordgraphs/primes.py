"""Modules, primality, critical primality, and the prime-height structure.

A module is a vertex subset whose members look identical from outside; a
graph with no nontrivial module is prime.  Graphs of order at most two are
counted as prime here, which makes the height arithmetic come out right
(h of a single edge is 2, sitting at level 2 above the one- and zero-vertex
graphs).  That convention lives in :func:`is_prime` only.

The primality test needs only n - 1 pair closures.  It grows the smallest
module containing {0, x} by splitter closure for every other vertex x; a
proper closure is a nontrivial module through 0.  A closure grows in waves
from the vertices just added: every vertex still outside agrees with 0 on
the mask, so a new member y forces in exactly the outside vertices that
tell y from 0, and each vertex is read once.  If none is proper, it
refines V - {0} into the maximal modules that avoid 0: start from the
neighbours and non-neighbours of 0, split a part whenever an outside vertex
sees some but not all of it, and recheck only the new pieces.  A module
avoiding 0 is never split, and every final part is a module, so a final
part of two or more vertices exists exactly when such a module does
(Ehrenfeucht, Gabow, McConnell & Sullivan, J. Algorithms 1994).

The witness is the first proper pair closure in lexicographic pair order,
read from the same two steps with no scan over all n(n-1)/2 pairs: the
first proper closure through 0 if there is one, else the closure of the
least vertex that shares a final part of two or more vertices with the next
vertex of that part (see :func:`find_nontrivial_module`).  The full pair
scan, complete because a nontrivial module contains the closure of any pair
inside it, is the tests' independent oracle for both the test and the
witness, beside the exhaustive-subset method.

:func:`is_prime` owns the memo of that two-step test: a plain dict keyed on
``g.rows``, which stores a verdict while its entries hold at most
``PRIME_MEMO_CAP`` (2^21) adjacency bits, n^2 for an entry of order n.  The
verdict depends on the rows alone, never on labels, so every writer stores
the value any other would and the memo is idempotent; order <= 2 is
answered before it.  It serves the census and its ``verify`` checks, the
``prime`` command and the catalogue's manifests only: no word route tests
a graph here, as the Jónsson route decides a window's primality by a rule
on its form (:func:`wordgraphs.ages._prime_form`), which the tests hold to
this test.  A census asks the same rows often: the prime guards of
:func:`is_critically_prime`, :func:`schmerl_trotter_pair` and
:func:`prime_height` repeat the caller's test, and the small subgraphs of
the pair scan and the height recursion recur.  The census through order 8
fills 23,776 entries, 1,281,624 bits of small-int rows that CPython shares.
Large rows are not shared, and the bits bound them: a 400-vertex graph's
deletions stop the memo after 13 entries (0.33 MiB), where counting entries
alone would keep all 400, 10 MiB.

Heights are computed by dynamic programming over canonical keys; the memo
table is shared and idempotent (all writers compute equal values), and
``HEIGHT_CAP`` bounds it to one entry per prime class of order at most 8,
4,965 entries in all.  The recursion visits only the subgraphs that drop
one or two vertices, which by the Schmerl-Trotter extension theorem
(Discrete Math. 113, 1993) hold a prime of the largest height below, and
stops at the first single drop whose height reaches the bound for its
order (see :func:`prime_height`); the all-subsets recursion is the tests'
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    CanonKey,
    Graph,
    GraphError,
    _bits,
    canonical_key,
    delete_vertex,
    induced_subgraph,
)


class PrimalityError(ValueError):
    """Operation requires a prime graph."""


@dataclass(frozen=True)
class ModuleWitness:
    """A nontrivial module: 2 <= |vertices| < n, externally homogeneous."""

    vertices: tuple[int, ...]


@dataclass(frozen=True)
class PrimeHeightRecord:
    key: CanonKey
    order: int
    height: int


def _pair_closure(g: Graph, u: int, v: int) -> int:
    """Smallest module containing {u, v}, as a bitmask (may be all of V).

    Every vertex left outside is uniform on the mask, so it agrees with u;
    a vertex y joining the mask therefore forces in exactly the outside
    vertices that tell y from u, ``(rows[y] ^ rows[u]) & outside``.
    """
    rows = g.rows
    row_u = rows[u]
    full = (1 << g.n) - 1
    outside = full ^ (1 << u) ^ (1 << v)
    new = (row_u ^ rows[v]) & outside
    while new:
        outside ^= new
        if not outside:
            return full
        forced = 0
        while new:  # each vertex of the wave, lowest first
            low = new & -new
            forced |= rows[low.bit_length() - 1] ^ row_u
            new ^= low
        new = forced & outside
    return full ^ outside


def _splits_uniform(g: Graph, part: int, outside: int) -> list[int]:
    """Pieces of ``part`` on which every vertex of ``outside`` is uniform."""
    pieces = [part]
    for x in _bits(outside):
        row = g.rows[x]
        refined = []
        for piece in pieces:
            seen = piece & row
            if seen and seen != piece:
                refined += (seen, piece ^ seen)
            else:
                refined.append(piece)
        pieces = refined
    return pieces


def _first_closure_through_0(g: Graph) -> int | None:
    """The proper pair closure of {0, x} for the least such x, or None."""
    full = (1 << g.n) - 1
    for x in range(1, g.n):
        mask = _pair_closure(g, 0, x)
        if mask != full:
            return mask
    return None


def _modules_avoiding_0(g: Graph) -> Iterator[int]:
    """The maximal modules avoiding vertex 0 that have two or more vertices."""
    rest = ((1 << g.n) - 1) ^ 1
    # invariant: every vertex outside a queued part but not in its pending
    # mask sees all of the part or none of it (vertex 0 starts that way)
    work = [(part, rest ^ part) for part in (g.rows[0], rest ^ g.rows[0])]
    while work:
        part, pending = work.pop()
        if part & (part - 1) == 0:
            continue  # fewer than two vertices
        pieces = _splits_uniform(g, part, pending)
        if len(pieces) == 1:
            yield part
        else:
            work += [(piece, part ^ piece) for piece in pieces]


def find_nontrivial_module(g: Graph) -> ModuleWitness | None:
    """First proper pair closure in lexicographic pair order, or None.

    Pairs through 0 come first.  When all of their closures are full, a pair
    of other vertices has a proper closure iff both lie in one maximal
    module avoiding 0, so the first such pair is the least vertex of any
    such module of two or more vertices with the next vertex of its module.
    """
    if g.n < 3:
        return None
    mask = _first_closure_through_0(g)
    if mask is None:
        module = min(_modules_avoiding_0(g), key=lambda part: part & -part,
                     default=None)
        if module is None:
            return None
        low = module & -module
        rest = module ^ low
        mask = _pair_closure(g, low.bit_length() - 1,
                             (rest & -rest).bit_length() - 1)
    return ModuleWitness(tuple(i for i in range(g.n) if (mask >> i) & 1))


PRIME_MEMO_CAP = 1 << 21

# rows -> the two-step test's verdict (see the module docstring)
_PRIME_MEMO: dict[tuple[int, ...], bool] = {}
_prime_memo_bits = 0  # n^2 per entry of order n


def is_prime(g: Graph) -> bool:
    """No nontrivial module; order <= 2 is prime by convention.  Larger
    orders are answered from the rows memo when their rows were tested
    before (see the module docstring)."""
    global _prime_memo_bits
    if g.n <= 2:
        return True
    prime = _PRIME_MEMO.get(g.rows)
    if prime is None:
        prime = (_first_closure_through_0(g) is None
                 and next(_modules_avoiding_0(g), None) is None)
        if _prime_memo_bits + g.n * g.n <= PRIME_MEMO_CAP:
            _PRIME_MEMO[g.rows] = prime
            _prime_memo_bits += g.n * g.n
    return prime


def is_critically_prime(g: Graph) -> bool:
    """Prime, order >= 4, and no single-vertex deletion stays prime."""
    if g.n < 4 or not is_prime(g):
        return False
    for v in range(g.n):
        if is_prime(delete_vertex(g, v)):
            return False
    return True


def schmerl_trotter_pair(g: Graph) -> tuple[int, int] | None:
    """Distinct c, d with the graph minus {c, d} still prime.

    Guaranteed to exist for prime graphs of order >= 7; smaller orders may
    yield None.  Pairs are scanned in lexicographic order for determinism.
    """
    if not is_prime(g):
        raise PrimalityError("schmerl_trotter_pair requires a prime graph")
    for c in range(g.n):
        for d in range(c + 1, g.n):
            rest = [v for v in range(g.n) if v not in (c, d)]
            if is_prime(induced_subgraph(g, rest)):
                return (c, d)
    return None


# -- heights ----------------------------------------------------------------

HEIGHT_CAP = 8

# one entry per prime class of order <= HEIGHT_CAP: at most 4,965 entries
_HEIGHT_MEMO: dict[CanonKey, int] = {}


def _height_bound(m: int) -> int:
    """Largest height a prime of order m can have (no prime has order 3).

    Height grows strictly along embeddings, so a chain below a prime of
    order m uses distinct orders from {0, 1, 2, 4, ..., m - 1}.
    """
    return m if m <= 2 else m - 1


def prime_height(g: Graph) -> PrimeHeightRecord:
    """Longest chain of prime graphs below g, the empty graph at height 0.

    The height of a prime is one more than the largest height of a prime
    strictly embeddable in it, which is a proper induced subgraph.  Height
    grows along strict embeddings, so a prime subgraph inside another prime
    proper subgraph never decides the maximum.  Only the subsets that drop
    one or two vertices are tried: a prime subgraph of order >= 3 lies in a
    prime subgraph with two more vertices (Schmerl & Trotter, Discrete
    Math. 113, 1993), hence in one of order n - 1 or n - 2, and one of
    order <= 2 lies in a P4, which every prime of order >= 4 contains.  No
    graph of order 3 is prime, and below that the one- and two-vertex drops
    are every proper subset.  The single drops come first, in vertex order,
    and the search stops at the first one whose height reaches the bound
    for its order (:func:`_height_bound`), since no drop can beat it.  A
    pair is skipped when dropping one of its vertices alone leaves a prime.
    The all-subsets recursion is the tests' oracle.
    """
    if g.n > HEIGHT_CAP:
        raise GraphError(f"prime_height capped at {HEIGHT_CAP} vertices")
    if not is_prime(g):
        raise PrimalityError("prime_height requires a prime graph")

    def height_of(h: Graph, key: CanonKey) -> int:
        memo = _HEIGHT_MEMO.get(key)
        if memo is None:
            memo = _HEIGHT_MEMO[key] = best_below(h) + 1
        return memo

    def best_below(h: Graph) -> int:
        def sub_height(mask: int) -> int:
            sub = induced_subgraph(h, _bits(mask))
            return height_of(sub, canonical_key(sub)) if is_prime(sub) else -1

        full = (1 << h.n) - 1
        top = _height_bound(h.n - 1)
        singles = []
        for u in range(h.n):
            singles.append(sub_height(full ^ (1 << u)))
            if singles[-1] == top:
                return top  # no deletion can beat the order bound
        # a pair through u lies inside h - u; if that is prime, it wins
        spare = [u for u in range(h.n) if singles[u] < 0]
        return max(singles + [sub_height(full ^ (1 << u) ^ (1 << v))
                              for i, u in enumerate(spare) for v in spare[i + 1:]],
                   default=-1)

    key = canonical_key(g)
    return PrimeHeightRecord(key=key, order=g.n, height=height_of(g, key))
