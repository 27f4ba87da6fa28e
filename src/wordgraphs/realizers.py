"""Two-linear-order realizers for word graphs, posets and bichains.

Every finite word graph is a permutation graph; the constructive witness is
a realizer (a pair of linear orders whose intersection is a transitive
orientation of the graph), built vertex by vertex.  The step invariant is
that the newest vertex is extremal (maximum or minimum) in one of the two
orders; each step first normalizes so the previous vertex sits at the top of
the first order, then inserts the new vertex just below that top in the
first order and at the bottom (letter 1) or the top (letter 0) of the second
order.  Normalization never rewrites the orders: a polarity flag stands for
reversing both orders and a swap flag for exchanging their roles, both O(1),
with one materialization pass at the end.  Reversal and swap preserve the
realized comparability graph, so validation is unaffected.

Checking a realizer works on rank masks: walking an order from its top
down, each element gets the mask of the elements after it, so the
intersection order's row of x is the AND of x's two rank masks, and x is
comparable to exactly the elements on the same side of it in both orders.
:func:`validate_realizer` takes the masks in the graph's index space and
compares each comparability row with the graph's row, in O(n) big-integer
operations instead of sets of O(n^2) label pairs.  One side of that
comparison comes from the two orders, the other from the graph, so the check
stays independent of how the realizer was built.  The intersection of two
linear orders is transitive by construction, so validation builds no
:class:`Poset`; the tests build one from every realizer they make, as an
oracle that visits the order's pairs one by one.

Conventions: the permutation graph of sigma has edges exactly on the pairs
reversed by sigma, which is the incomparability graph of the intersection
order of the bichain (natural order, sigma order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, GraphError, _bits, from_edges
from .wordgraph import graph_of_word

LinearOrder = tuple[int, ...]


@dataclass(frozen=True)
class Bichain:
    """A vertex set carrying two linear orders (least to greatest)."""

    first: LinearOrder
    second: LinearOrder

    def __post_init__(self) -> None:
        if set(self.first) != set(self.second) or len(set(self.first)) != len(self.first):
            raise GraphError("both orders must enumerate the same vertex set")

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.first))


@dataclass(frozen=True)
class Realizer(Bichain):
    """Bichain whose intersection order realizes a transitive orientation."""


@dataclass(frozen=True)
class Poset:
    """Strict partial order; ``above[i]`` masks the elements above element i."""

    elements: tuple[int, ...]
    above: tuple[int, ...]

    def __post_init__(self) -> None:
        above = self.above
        for i, row in enumerate(above):
            if (row >> i) & 1:
                raise GraphError("strict order cannot be reflexive")
            rest = row
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if (above[j] >> i) & 1:
                    raise GraphError("strict order cannot contain a 2-cycle")
                if above[j] & ~row:
                    raise GraphError("order relation is not transitive")

    def less(self, a: int, b: int) -> bool:
        i, j = self.elements.index(a), self.elements.index(b)
        return bool((self.above[i] >> j) & 1)


# -- incremental construction -------------------------------------------------


class _Builder:
    """Pair of physical lists plus polarity/swap flags.

    Logical first order = (reverse of)? (physical A or B); see module
    docstring.  ``extremal`` records where the newest vertex currently sits,
    in logical coordinates: (order index 0/1, "top" | "bottom").
    """

    def __init__(self) -> None:
        self.a: list[int] = [-1]
        self.b: list[int] = [-1]
        self.flipped = False
        self.swapped = False
        self.extremal = (0, "top")

    def _physical(self, which: int) -> list[int]:
        use_b = (which == 0) == self.swapped
        return self.b if use_b else self.a

    def _normalize_previous_to_top_of_first(self) -> None:
        side, where = self.extremal
        if where == "bottom":
            self.flipped = not self.flipped
            where = "top"
        if side == 1:
            self.swapped = not self.swapped
        self.extremal = (0, "top")

    def insert_step(self, vertex: int, bit: str) -> None:
        self._normalize_previous_to_top_of_first()
        first = self._physical(0)
        second = self._physical(1)
        if not self.flipped:
            first.insert(len(first) - 1, vertex)  # just below the top
        else:
            first.insert(1, vertex)
        if bit == "1":
            # unique edge to the previous vertex: new vertex goes below
            # everything in the second order
            if not self.flipped:
                second.insert(0, vertex)
            else:
                second.append(vertex)
            self.extremal = (1, "bottom")
        else:
            # unique non-edge to the previous vertex: new vertex tops the
            # second order, staying incomparable to the old top of the first
            if not self.flipped:
                second.append(vertex)
            else:
                second.insert(0, vertex)
            self.extremal = (1, "top")
        assert self._newest_is_extremal(vertex), "extremality invariant broken"

    def _logical(self, which: int) -> list[int]:
        seq = self._physical(which)
        return seq[::-1] if self.flipped else seq[:]

    def _newest_is_extremal(self, vertex: int) -> bool:
        return any(self._logical(k)[p] == vertex
                   for k in (0, 1) for p in (0, -1))

    def result(self) -> Realizer:
        return Realizer(tuple(self._logical(0)), tuple(self._logical(1)))


def build_realizer(word: str) -> Realizer:
    """Realizer of a transitive orientation of the word's graph.

    The empty word yields the one-vertex graph on label -1 with the trivial
    realizer; longer words extend one letter at a time.
    """
    if any(c not in "01" for c in word):
        raise GraphError("realizer input must be a 0-1 word")
    builder = _Builder()
    for j, bit in enumerate(word):
        builder.insert_step(j, bit)
    return builder.result()


# -- poset and bichain conversions ---------------------------------------------


def _rank_masks(order: LinearOrder, index: dict[int, int]) -> list[int]:
    """``masks[index[v]]``: the indices of the elements after v in ``order``."""
    masks = [0] * len(order)
    after = 0
    for v in reversed(order):
        i = index[v]
        masks[i] = after
        after |= 1 << i
    return masks


def intersection_order(b: Bichain) -> Poset:
    """x < y iff x precedes y in both orders."""
    elements = b.elements
    index = {v: i for i, v in enumerate(elements)}
    above = zip(_rank_masks(b.first, index), _rank_masks(b.second, index))
    return Poset(elements, tuple(a1 & a2 for a1, a2 in above))


def comparability_graph(p: Poset) -> Graph:
    n = len(p.elements)
    edges = [(i, j) for i in range(n) for j in _bits(p.above[i]) if i < j]
    edges += [(j, i) for i in range(n) for j in _bits(p.above[i]) if j < i]
    return from_edges(n, [(min(a, b), max(a, b)) for a, b in edges],
                      labels=p.elements)


def incomparability_graph(p: Poset) -> Graph:
    from .graphs import complement

    return complement(comparability_graph(p))


def validate_realizer(r: Realizer, g: Graph) -> bool:
    """Comparability graph of the intersection order equals g exactly.

    The rank masks of both orders are taken in g's index space, through one
    label-to-index map, so each comparability row (the elements after i in
    both orders or before i in both) compares with ``g.rows[i]`` directly.
    The intersection of two linear orders is a strict partial order by
    construction, so no :class:`Poset` is built here.
    """
    labels = tuple(g.label_of(i) for i in range(g.n))
    if set(r.first) != set(labels):
        raise GraphError("realizer and graph disagree on the vertex set")
    index = {v: i for i, v in enumerate(labels)}
    after = zip(_rank_masks(r.first, index), _rank_masks(r.second, index))
    full = (1 << g.n) - 1
    for i, (a1, a2) in enumerate(after):
        others = full ^ (1 << i)
        if (a1 & a2) | ((others ^ a1) & (others ^ a2)) != g.rows[i]:
            return False
    return True


def realizer_for_word_graph(word: str) -> tuple[Realizer, Graph, bool]:
    """Build, then validate against the word graph; convenience bundle."""
    r = build_realizer(word)
    g = graph_of_word(word, len(word))
    return r, g, validate_realizer(r, g)


def restrict(b: Bichain, keep: Sequence[int]) -> Bichain:
    """Restriction to a label subset; realizes the induced suborder."""
    keep_set = set(keep)
    return Bichain(tuple(v for v in b.first if v in keep_set),
                   tuple(v for v in b.second if v in keep_set))


def bichain_to_permutation(b: Bichain) -> tuple[int, ...]:
    """One-line permutation: position i along the first order holds the
    rank (1-based) of that element in the second order."""
    rank2 = {v: k + 1 for k, v in enumerate(b.second)}
    return tuple(rank2[v] for v in b.first)


def permutation_to_bichain(sigma: Sequence[int]) -> Bichain:
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise GraphError("expected a permutation of 1..n in one-line notation")
    second = tuple(x for _, x in sorted((sigma[i - 1], i) for i in range(1, n + 1)))
    return Bichain(tuple(range(1, n + 1)), second)


def permutation_graph(sigma: Sequence[int]) -> Graph:
    """Edges exactly on the pairs reversed by sigma."""
    n = len(sigma)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if sigma[i] > sigma[j]]
    return from_edges(n, edges, labels=tuple(range(1, n + 1)))


def realizer_to_json(r: Bichain) -> dict:
    return {"first": list(r.first), "second": list(r.second)}


def realizer_from_json(doc: dict) -> Realizer:
    return Realizer(tuple(doc["first"]), tuple(doc["second"]))
