"""graph6 round trips, hand-derived golden strings, DOT and sidecar output."""

import json

import pytest
from hypothesis import given, settings

from conftest import graphs
from wordgraphs.graph6 import (
    from_graph6,
    labels_sidecar,
    to_dot,
    to_graph6,
)
from wordgraphs.graphs import Graph, GraphError, clique, empty_graph, from_edges, path


# Derived by hand from the format rules: order byte n+63, then upper-triangle
# bits in column order packed into 6-bit chunks offset by 63.
GOLDEN = [
    (empty_graph(0), "?"),
    (empty_graph(2), "A?"),
    (from_edges(2, [(0, 1)]), "A_"),
    (clique(3), "Bw"),
    (path(3), "Bg"),
]


@pytest.mark.parametrize("g,expected", GOLDEN)
def test_golden_strings(g, expected):
    assert to_graph6(g) == expected
    assert from_graph6(expected) == g


@given(graphs(max_n=8))
def test_round_trip_small(g):
    assert from_graph6(to_graph6(g)) == Graph(g.n, g.rows)


def test_round_trip_beyond_one_byte_order():
    g = path(80)
    assert from_graph6(to_graph6(g)) == g


def test_header_tolerated():
    assert from_graph6(">>graph6<<A_") == from_edges(2, [(0, 1)])


def test_rejects_bad_body():
    with pytest.raises(GraphError):
        from_graph6("A")  # missing body
    with pytest.raises(GraphError):
        from_graph6("B" + chr(30))  # character below offset


@pytest.mark.parametrize("line", ["!" + "?" * 78, chr(127) + "?" * 336,
                                  "~?!?", "~?", "~~?????"],
                         ids=["below-63", "byte-127", "18-bit-below-63",
                              "18-bit-truncated", "36-bit-truncated"])
def test_rejects_order_field_outside_the_format(line):
    # a first byte below 63 once read as order -30, and 127 as order 64
    with pytest.raises(GraphError, match="invalid graph6 order field"):
        from_graph6(line)


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=9))
def test_agrees_with_networkx_oracle(g):
    nx = pytest.importorskip("networkx")
    theirs = nx.from_graph6_bytes(to_graph6(g).encode())
    assert set(theirs.nodes) == set(range(g.n))
    assert {tuple(sorted(e)) for e in theirs.edges} == set(g.edges())
    ours = from_graph6(nx.to_graph6_bytes(theirs, header=False).decode().strip())
    assert ours == Graph(g.n, g.rows)


def test_dot_and_sidecar():
    g = Graph(2, (2, 1), labels=(-1, 0))
    dot = to_dot(g)
    assert "v0 -- v1;" in dot
    assert 'label="-1"' in dot
    side = json.loads(labels_sidecar(g))
    assert side == {"n": 2, "labels": [-1, 0]}
