"""Word-to-graph construction and its structural identities."""

from hypothesis import given, settings, strategies as st

import oracles
from conftest import bit_words
from wordgraphs.graphs import (
    are_isomorphic,
    canonical_key,
    clique,
    complement,
    embeds,
    empty_graph,
    from_edges,
    induced_subgraph,
    path,
)
from wordgraphs.wordgraph import graph_of_word, graph_of_word_forward
from wordgraphs.words import complement_word, explicit_word, fibonacci_word, reverse_star


def test_graph_of_word_examples():
    k2 = graph_of_word("1")
    assert k2.n == 2 and k2.labels == (-1, 0) and oracles.edge_count(k2) == 1
    assert are_isomorphic(graph_of_word("1111"), path(5))
    assert oracles.edge_count(graph_of_word("0")) == 0
    assert graph_of_word("", 0).labels == (-1,)


def test_graph_of_word_explicit_edges():
    # w = 10: letter 1 joins (-1,0); letter 0 joins -1..1 non-consecutively
    g = graph_of_word("10")
    by_label = {(g.label_of(i), g.label_of(j)) for i, j in g.edges()}
    assert by_label == {(-1, 0), (-1, 1)}


def test_forward_variant_examples():
    assert are_isomorphic(graph_of_word_forward("1111"), path(5))
    assert oracles.edge_count(graph_of_word_forward("0")) == 0
    assert graph_of_word_forward("0", 1).labels == (0, 1)


@given(bit_words)
def test_complement_identity_bit_exact(bits):
    w = explicit_word(bits)
    L = len(bits)
    assert graph_of_word(complement_word(w), L) == complement(graph_of_word(w, L))


def test_complement_identity_at_two_hundred():
    w = fibonacci_word()
    assert graph_of_word(complement_word(w), 200) == complement(graph_of_word(w, 200))


@given(bit_words)
def test_reversal_identity(bits):
    w = explicit_word(bits)
    L = len(bits)
    forward = graph_of_word_forward(reverse_star(w, L), L)
    backward = graph_of_word(w, L)
    assert canonical_key(forward) == canonical_key(backward)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=25), st.integers(min_value=0, max_value=25))
def test_prefix_monotonicity(a, b):
    lo, hi = min(a, b), max(a, b)
    w = fibonacci_word()
    small = graph_of_word(w, lo)
    large = graph_of_word(w, hi)
    assert induced_subgraph(large, range(lo + 1)) == small


def test_age_membership_examples():
    assert embeds(path(3), graph_of_word(explicit_word("11111"), 5))
    # non-consecutive zero positions induce triangles
    assert embeds(clique(3), graph_of_word(fibonacci_word(), 20))
    assert not embeds(clique(5), graph_of_word(explicit_word("1111"), 4))
    assert not embeds(empty_graph(6), graph_of_word(explicit_word("1111"), 4))


def test_age_membership_monotone_in_scale():
    w = fibonacci_word()
    h = from_edges(3, [(0, 1)])
    hits = [embeds(h, graph_of_word(w, L)) for L in range(3, 30, 5)]
    first_yes = hits.index(True)
    assert all(hits[first_yes:])


def test_same_age_different_factors_words():
    # all-ones vs all-ones-with-one-zero-flip both generate paths
    mu = explicit_word("1" * 14)
    mu2 = explicit_word("10111111111111")
    ga, gb = graph_of_word(mu, 14), graph_of_word(mu2, 14)
    for k in range(1, 6):
        a = {canonical_key(induced_subgraph(ga, s)) for s in _subsets(15, k)}
        b = {canonical_key(induced_subgraph(gb, s)) for s in _subsets(15, k)}
        assert a == b


def _subsets(n, k):
    import itertools

    return itertools.combinations(range(n), k)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="01", max_size=63))
def test_letter_mask_rows_match_pair_loop(bits):
    assert graph_of_word(bits).rows == oracles.word_graph_rows(bits)
    assert graph_of_word_forward(bits).rows == oracles.word_graph_rows(bits, forward=True)


def test_letter_mask_rows_match_pair_loop_at_six_hundred():
    bits = fibonacci_word().prefix(600)
    assert graph_of_word(bits).rows == oracles.word_graph_rows(bits)
    assert graph_of_word_forward(bits).rows == oracles.word_graph_rows(bits, forward=True)
