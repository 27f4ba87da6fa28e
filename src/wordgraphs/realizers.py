"""Two-linear-order realizers for word graphs.

Every finite word graph is a permutation graph; the constructive witness is
a realizer (a pair of linear orders whose intersection is a transitive
orientation of the graph), built one letter at a time on two deques.  The
invariant: when letter j comes, vertex j - 1 (label -1 before the first
letter) sits at the top end of ``orders[j % 2]``.  Step j puts j just inside
that end, and at the bottom end of the other order for letter 1 (so j is
comparable to j - 1 alone) or at its top end for letter 0 (comparable to all
but j - 1).  Now j is extremal in ``orders[(j + 1) % 2]``: at its top after
a 0; after a 1 (but the last) at its bottom, so the ``flipped`` bit toggles
and both deques are read from the other end, which reverses both orders and
keeps the realized graph.  Inserting just inside an end is a pop and two
appends, so a build is O(n); the popped vertex must be j - 1, a tripwire
that raises even under ``python -O``.  The result is ``orders[(n - 1) % 2]``
then ``orders[n % 2]``, both reversed iff flipped.

Checking a realizer works on rank masks: walking an order from its top
down, each element gets the mask of the elements after it, so the
intersection order's row of x is the AND of x's two rank masks, and x is
comparable to exactly the elements on the same side of it in both orders.
:func:`validate_realizer` takes the masks in the graph's index space and
compares each comparability row with the graph's row, in O(n) big-integer
operations instead of sets of O(n^2) label pairs.  One side of that
comparison comes from the two orders, the other from the graph, so the check
stays independent of how the realizer was built.  The intersection of two
linear orders is transitive by construction, so validation builds no order
relation; the tests build one from every realizer they make, as an oracle
that visits the order's pairs one by one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, GraphError
from .wordgraph import graph_of_word

LinearOrder = tuple[int, ...]


@dataclass(frozen=True)
class Realizer:
    """Two linear orders (least to greatest) on one vertex set; it realizes
    the graph that is the comparability graph of their intersection."""

    first: LinearOrder
    second: LinearOrder

    def __post_init__(self) -> None:
        # realizer_from_json reads the orders from outside the program
        vertices = set(self.first)
        if (vertices != set(self.second)
                or not len(vertices) == len(self.first) == len(self.second)):
            raise GraphError("both orders must enumerate the same vertex set, "
                             "each vertex once")


# -- incremental construction -------------------------------------------------


def build_realizer(word: str) -> Realizer:
    """Realizer of a transitive orientation of the word's graph.

    The empty word yields the one-vertex graph on label -1 with the trivial
    realizer; longer words extend one letter at a time (module docstring).
    """
    if any(c not in "01" for c in word):
        raise GraphError("realizer input must be a 0-1 word")
    n = len(word)
    orders = (deque([-1]), deque([-1]))
    flipped = False  # set: each order runs right to left in its deque
    for j, bit in enumerate(word):
        first, second = orders[j % 2], orders[1 - j % 2]
        if flipped:
            pop, push = first.popleft, first.appendleft
        else:
            pop, push = first.pop, first.append
        top = pop()
        if top != j - 1:  # an explicit raise, so that -O keeps the tripwire
            raise AssertionError(f"vertex {top}, not {j - 1}, tops the order of {j}")
        push(j)
        push(top)
        # letter 1: bottom of the other order; letter 0: its top
        (second.append if (bit == "1") == flipped else second.appendleft)(j)
        flipped ^= bit == "1" and j < n - 1
    first, second = orders[(n - 1) % 2], orders[n % 2]
    if flipped:
        return Realizer(tuple(reversed(first)), tuple(reversed(second)))
    return Realizer(tuple(first), tuple(second))


# -- validation ---------------------------------------------------------------


def _rank_masks(order: LinearOrder, index: dict[int, int]) -> list[int]:
    """``masks[index[v]]``: the indices of the elements after v in ``order``."""
    masks = [0] * len(order)
    after = 0
    for v in reversed(order):
        i = index[v]
        masks[i] = after
        after |= 1 << i
    return masks


def validate_realizer(r: Realizer, g: Graph) -> bool:
    """Comparability graph of the intersection order equals g exactly.

    The rank masks of both orders are taken in g's index space, through one
    label-to-index map, so each comparability row (the elements after i in
    both orders or before i in both) compares with ``g.rows[i]`` directly.
    The intersection of two linear orders is a strict partial order by
    construction, so no order relation is built here.
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


def realizer_to_json(r: Realizer) -> dict:
    return {"first": list(r.first), "second": list(r.second)}


def realizer_from_json(doc: dict) -> Realizer:
    return Realizer(tuple(doc["first"]), tuple(doc["second"]))
