"""Unavoidable-family generators and the embedding detector."""

import pytest

import oracles
from wordgraphs.catalogue import (
    FAMILIES,
    MISSING_FAMILIES,
    chain_word_prime,
    detect_unavoidable,
    family_manifest,
    family_member,
    half_graph,
    line_of_k2n,
    line_of_subdivided_star,
    subdivided_star,
)
from wordgraphs.graphs import (
    GraphError,
    clique,
    cycle,
    embeds,
    empty_graph,
    from_edges,
    path,
)
from wordgraphs.primes import is_prime
from wordgraphs.wordgraph import graph_of_word
from wordgraphs.words import fibonacci_word, periodic_word


def test_subdivided_star_shapes():
    assert oracles.are_isomorphic(subdivided_star(1), path(3))
    assert oracles.are_isomorphic(subdivided_star(2), path(5))
    s3 = subdivided_star(3)
    assert (s3.n, oracles.edge_count(s3)) == (7, 6)
    assert s3.degree(0) == 3  # center
    with pytest.raises(GraphError):
        subdivided_star(0)


def test_line_of_k2n_shapes():
    assert oracles.are_isomorphic(line_of_k2n(1), from_edges(2, [(0, 1)]))
    assert oracles.are_isomorphic(line_of_k2n(2), cycle(4))
    prism = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
    assert oracles.are_isomorphic(line_of_k2n(3), prism)


def test_line_of_subdivided_star_shapes():
    assert oracles.are_isomorphic(line_of_subdivided_star(1), from_edges(2, [(0, 1)]))
    assert oracles.are_isomorphic(line_of_subdivided_star(2), path(4))
    net = from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    assert oracles.are_isomorphic(line_of_subdivided_star(3), net)


def test_half_graph_shapes():
    assert oracles.are_isomorphic(half_graph(1), from_edges(2, [(0, 1)]))
    assert oracles.are_isomorphic(half_graph(2), path(4))
    h3 = half_graph(3)
    assert (h3.n, oracles.edge_count(h3)) == (6, 6)
    # bipartite: the u side is independent
    assert all(not oracles.has_edge(h3, i, j) for i in range(3) for j in range(3) if i < j)


def test_chain_word_prime():
    # the member is the word graph of a Fibonacci prefix, without its labels;
    # the same construction on the all-ones word gives P_4, which is prime
    ones = graph_of_word(periodic_word("1"), 3)
    assert oracles.are_isomorphic(ones, path(4)) and is_prime(ones)
    fib6 = chain_word_prime(6)
    assert fib6.labels is None
    assert fib6.rows == graph_of_word(fibonacci_word(), 6).rows
    assert chain_word_prime(0).n == 1


def test_family_primality_golden_flags():
    # oracle-computed per family for n = 1..8; first members can be small
    # enough to fail (P_3 has a module; the line graph of K_{2,2} is C_4)
    expected = {
        "subdivided_star": [False] + [True] * 7,
        "line_of_k2n": [True, False] + [True] * 6,
        "line_of_subdivided_star": [True] * 8,
        "half_graph": [True] * 8,
    }
    for family, flags in expected.items():
        got = [is_prime(family_member(family, n)) for n in range(1, 9)]
        assert got == flags, family


def test_family_monotonicity():
    for family in FAMILIES[:4]:
        for n in range(1, 8):
            assert embeds(family_member(family, n), family_member(family, n + 1))


def test_detector_examples():
    hits = detect_unavoidable(half_graph(5), 3)
    assert ("half_graph", False) in hits
    hits = detect_unavoidable(path(20), 3)
    assert ("chain_word_prime", False) in hits
    # K_5 hosts only clique-like members; the subdivided star stays out
    hits = detect_unavoidable(clique(5), 1)
    assert ("half_graph", False) in hits
    assert ("line_of_k2n", False) in hits
    assert all(family != "subdivided_star" for family, _ in hits)


def test_detector_reports_are_revalidated_searches():
    hits = detect_unavoidable(half_graph(4), 2)
    for family, complemented in hits:
        member = family_member(family, 2, complemented)
        assert embeds(member, half_graph(4))


def test_detector_rejects_a_hit_whose_certificate_fails(monkeypatch):
    import wordgraphs.catalogue as catalogue

    # a map onto vertices of an edgeless host cannot induce a member with edges
    monkeypatch.setattr(catalogue, "embedding", lambda h, g: tuple(range(h.n)))
    with pytest.raises(AssertionError, match="certificate"):
        detect_unavoidable(empty_graph(12), 2)


def test_detector_rejects_a_hit_that_is_not_injective(monkeypatch):
    import wordgraphs.catalogue as catalogue

    # line_of_k2n(2) is C4, whose opposite vertices are twins: a map sending
    # two twins to one host vertex induces equal rows but is no embedding
    real = catalogue.embedding

    def merge_twins(h, g):
        image = real(h, g)
        twins = [(p, q) for p in range(h.n) for q in range(p + 1, h.n)
                 if h.rows[p] == h.rows[q]]
        if image is None or not twins:
            return image
        p, q = twins[0]
        return image[:q] + (image[p],) + image[q + 1:]

    assert ("line_of_k2n", False) in detect_unavoidable(cycle(4), 2)
    monkeypatch.setattr(catalogue, "embedding", merge_twins)
    with pytest.raises(AssertionError, match="certificate"):
        detect_unavoidable(cycle(4), 2)


def test_missing_family_documented():
    assert "half_graph_clique_plus" in MISSING_FAMILIES
    with pytest.raises(GraphError):
        family_member("half_graph_clique_plus", 3)


def test_family_manifest():
    doc = family_manifest("half_graph", 2)
    assert doc["order"] == 4 and doc["prime"] is True
    assert doc["graph6"]
    chain = family_manifest("chain_word_prime", 4)
    assert chain["word_prefix"] == "0100"
    assert "word_prefix" not in doc
    # the prime flag is the member's, complemented or not
    for complemented in (False, True):
        chain = family_manifest("chain_word_prime", 6, complemented)
        assert chain["word_prefix"] == "010010"
        member = family_member("chain_word_prime", 6, complemented)
        assert chain["prime"] == is_prime(member)
