"""Realizer construction, validation, poset/bichain conversions."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wordgraphs.graphs import Graph, GraphError, clique, complement, empty_graph, induced_subgraph
from wordgraphs.realizers import (
    Bichain,
    Poset,
    Realizer,
    bichain_to_permutation,
    build_realizer,
    comparability_graph,
    incomparability_graph,
    intersection_order,
    permutation_graph,
    permutation_to_bichain,
    realizer_for_word_graph,
    realizer_from_json,
    realizer_to_json,
    restrict,
    validate_realizer,
)
from wordgraphs.wordgraph import graph_of_word
from wordgraphs.words import fibonacci_word


def test_base_cases():
    r = build_realizer("")
    assert r.first == (-1,) and r.second == (-1,)
    assert validate_realizer(r, graph_of_word("", 0))
    r1, g1, ok1 = realizer_for_word_graph("1")
    assert ok1 and g1.edge_count() == 1


def test_all_words_up_to_length_eight_validate():
    for n in range(9):
        for bits in itertools.product("01", repeat=n):
            word = "".join(bits)
            r, g, ok = realizer_for_word_graph(word)
            assert ok, f"validation failed for word {word!r}"


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=9, max_size=24))
def test_random_longer_words_validate(word):
    _, _, ok = realizer_for_word_graph(word)
    assert ok


def test_restricted_realizer_still_validates():
    word = "0110100101"
    r, g, ok = realizer_for_word_graph(word)
    assert ok
    rng = random.Random(7)
    labels = [g.label_of(i) for i in range(g.n)]
    for _ in range(20):
        keep = sorted(rng.sample(labels, rng.randint(0, g.n)))
        sub_idx = [g.index_of_label(v) for v in keep]
        sub = induced_subgraph(g, sub_idx)
        rr = restrict(r, keep)
        assert validate_realizer(Realizer(rr.first, rr.second), sub)


def test_validate_realizer_trivial_cases():
    same = Realizer((0, 1, 2), (0, 1, 2))
    assert validate_realizer(same, clique(3))
    opposite = Realizer((0, 1, 2), (2, 1, 0))
    assert validate_realizer(opposite, empty_graph(3))
    with pytest.raises(GraphError):
        validate_realizer(same, clique(4))


def test_intersection_order_examples():
    chain = intersection_order(Bichain((1, 2, 3), (1, 2, 3)))
    assert chain.less(1, 2) and chain.less(2, 3) and chain.less(1, 3)
    anti = intersection_order(Bichain((1, 2, 3), (3, 2, 1)))
    assert not any(anti.less(a, b) for a in (1, 2, 3) for b in (1, 2, 3))
    mixed = intersection_order(Bichain((1, 2, 3), (2, 1, 3)))
    comparable = {(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if mixed.less(a, b)}
    assert comparable == {(1, 3), (2, 3)}


def test_poset_validation_tripwires():
    with pytest.raises(GraphError):
        Poset((0, 1), (1, 0))  # reflexive
    with pytest.raises(GraphError):
        Poset((0, 1), (2, 1))  # 2-cycle
    with pytest.raises(GraphError):
        Poset((0, 1, 2), (2, 4, 0))  # 0 < 1 < 2 without 0 < 2


def test_comparability_and_incomparability_are_complements():
    p = intersection_order(Bichain((1, 2, 3, 4), (2, 1, 4, 3)))
    comp = comparability_graph(p)
    inc = incomparability_graph(p)
    assert comp == complement(inc)
    chain = intersection_order(Bichain((1, 2, 3), (1, 2, 3)))
    assert comparability_graph(chain).edge_count() == 3
    assert incomparability_graph(chain).edge_count() == 0


def test_bichain_to_permutation_examples():
    assert bichain_to_permutation(Bichain((1, 2, 3), (1, 2, 3))) == (1, 2, 3)
    assert bichain_to_permutation(Bichain((1, 2, 3), (3, 2, 1))) == (3, 2, 1)
    assert bichain_to_permutation(Bichain((1, 2, 3), (2, 1, 3))) == (2, 1, 3)


@settings(max_examples=50, deadline=None)
@given(st.permutations(tuple(range(1, 7))))
def test_permutation_round_trip(sigma):
    sigma = tuple(sigma)
    b = permutation_to_bichain(sigma)
    assert bichain_to_permutation(b) == sigma
    # permutation graph (reversed pairs) = incomparability of the bichain order
    assert permutation_graph(sigma) == incomparability_graph(intersection_order(b))


def test_permutation_graph_convention():
    assert sorted(permutation_graph((2, 1, 3)).edges()) == [(0, 1)]
    assert permutation_graph((3, 2, 1)).edge_count() == 3


def test_realizer_json_round_trip():
    r = build_realizer("0101")
    back = realizer_from_json(realizer_to_json(r))
    assert back == r


def _relabelled(g: Graph, perm: list[int]) -> Graph:
    """Index k holds vertex perm[k] of g, with its label."""
    where = {v: k for k, v in enumerate(perm)}
    rows = tuple(sum(1 << where[w] for w in range(g.n) if g.has_edge(v, w))
                 for v in perm)
    return Graph(g.n, rows, tuple(g.label_of(v) for v in perm))


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="01", max_size=30), st.data())
def test_validation_matches_label_pair_oracle(word, data):
    r = build_realizer(word)
    g = graph_of_word(word)
    perm = data.draw(st.permutations(range(g.n)))
    for host in (g, _relabelled(g, perm)):
        assert validate_realizer(r, host)
        assert oracles.realizer_realizes(r.first, r.second, host)
    if g.n >= 2:
        i, j = sorted(data.draw(st.lists(st.integers(0, g.n - 1), min_size=2,
                                         max_size=2, unique=True)))
        second = list(r.second)
        second[i], second[j] = second[j], second[i]
        swapped = Realizer(r.first, tuple(second))
        for host in (g, _relabelled(g, perm)):
            assert (validate_realizer(swapped, host)
                    == oracles.realizer_realizes(swapped.first, swapped.second, host))


def test_validation_of_fibonacci_six_hundred_matches_oracle():
    word = fibonacci_word().prefix(600)
    r, g, ok = realizer_for_word_graph(word)
    assert ok and oracles.realizer_realizes(r.first, r.second, g)
    second = list(r.second)
    second[0], second[-1] = second[-1], second[0]
    swapped = Realizer(r.first, tuple(second))
    assert not validate_realizer(swapped, g)
    assert not oracles.realizer_realizes(swapped.first, swapped.second, g)
