"""Generators for the unavoidable prime families and an embedding detector.

Families, with their complemented variants: the star with every edge
subdivided once, the line graph of K_{2,n}, the line graph of the subdivided
star, the half-graph, and the word graph of a Fibonacci prefix.  The
half-graph convention is u_i adjacent to v_j exactly when i <= j; the text
never fixes the orientation, so this artifact does (see README).  The sixth
family from the source material (half-graph with one side completed plus an
extra vertex) is defined only pictorially there and is deliberately absent;
the detector covers families one through five and documents the gap.
"""

from __future__ import annotations

from .graph6 import to_graph6
from .graphs import (
    Graph,
    GraphError,
    _reorder,
    _trusted,
    complement,
    complete_bipartite,
    embedding,
    from_edges,
    line_graph,
)
from .primes import is_prime
from .wordgraph import graph_of_word
from .words import fibonacci_word

# family six (half-graph with a completed side and one extra vertex) is
# under-specified in the text and has no generator here
MISSING_FAMILIES = ("half_graph_clique_plus",)


def subdivided_star(n: int) -> Graph:
    """Star K_{1,n} with every edge subdivided once: 2n + 1 vertices.

    Vertex order: center, then subdivision vertex and leaf per spoke.
    """
    if n < 1:
        raise GraphError("need at least one spoke")
    edges = []
    for i in range(n):
        s, leaf = 1 + 2 * i, 2 + 2 * i
        edges += [(0, s), (s, leaf)]
    return from_edges(2 * n + 1, edges)


def line_of_k2n(n: int) -> Graph:
    if n < 1:
        raise GraphError("need n >= 1")
    return line_graph(complete_bipartite(2, n))


def line_of_subdivided_star(n: int) -> Graph:
    if n < 1:
        raise GraphError("need n >= 1")
    return line_graph(subdivided_star(n))


def half_graph(n: int) -> Graph:
    """Bipartite u_1..u_n, v_1..v_n with u_i ~ v_j iff i <= j."""
    if n < 1:
        raise GraphError("need height >= 1")
    edges = [(i, n + j) for i in range(n) for j in range(n) if i <= j]
    return from_edges(2 * n, edges)


def chain_word_prime(n: int) -> Graph:
    """Graph of the length-n Fibonacci prefix, without its word labels."""
    g = graph_of_word(fibonacci_word(), n)
    return _trusted(g.n, g.rows)


_GENERATORS = {
    "subdivided_star": subdivided_star,
    "line_of_k2n": line_of_k2n,
    "line_of_subdivided_star": line_of_subdivided_star,
    "half_graph": half_graph,
    "chain_word_prime": chain_word_prime,
}

FAMILIES = tuple(_GENERATORS)


def family_member(family: str, n: int, complemented: bool = False) -> Graph:
    if family not in _GENERATORS:
        raise GraphError(f"unknown family {family!r}")
    g = _GENERATORS[family](n)
    return complement(g) if complemented else g


def detect_unavoidable(g: Graph, n: int) -> set[tuple[str, bool]]:
    """Which parameter-n family members (or complements) embed in g.

    Every hit comes with the embedding the search returned as its
    certificate: the subgraph of g induced on the image, in the member's
    vertex order, must equal the member bit for bit.
    """
    if n < 1:
        raise GraphError(f"--n must be at least 1, got {n}")
    hits = set()
    for family in FAMILIES:
        for complemented in (False, True):
            member = family_member(family, n, complemented)
            image = embedding(member, g)
            if image is not None:
                if (len(set(image)) != member.n
                        or _reorder(g, image) != member.rows):
                    raise AssertionError("detector hit failed its certificate check")
                hits.add((family, complemented))
    return hits


def family_manifest(family: str, n: int, complemented: bool = False) -> dict:
    g = family_member(family, n, complemented)
    doc = {
        "family": family,
        "n": n,
        "complemented": complemented,
        "order": g.n,
        "graph6": to_graph6(g),
        "prime": is_prime(g),
    }
    if family == "chain_word_prime":
        doc["word_prefix"] = fibonacci_word().prefix(n)
    return doc
