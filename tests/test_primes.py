"""Module search, primality, Schmerl-Trotter pairs, heights, prime counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import graphs
from wordgraphs import primes
from wordgraphs.graphs import (
    Graph,
    GraphError,
    add_vertex,
    clique,
    complement,
    cycle,
    empty_graph,
    enumerate_graphs,
    from_edges,
    induced_subgraph,
    path,
)
from wordgraphs.primes import (
    PrimalityError,
    _pair_closure,
    find_nontrivial_module,
    is_critically_prime,
    is_prime,
    prime_height,
    schmerl_trotter_pair,
)
from wordgraphs.wordgraph import graph_of_word
from wordgraphs.words import fibonacci_word


def prime_graphs_of_order(n: int) -> list[Graph]:
    return [g for g in enumerate_graphs(n)[n] if is_prime(g)]


def test_find_module_examples():
    witness = find_nontrivial_module(cycle(4))
    assert witness is not None
    assert witness.vertices == (0, 2)  # both adjacent to exactly 1 and 3
    assert witness.vertices in oracles.brute_modules(cycle(4))
    assert find_nontrivial_module(path(4)) is None
    k3 = find_nontrivial_module(clique(3))
    assert k3 is not None and len(k3.vertices) == 2
    assert k3.vertices == (0, 1)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=7))
def test_module_search_agrees_with_subset_enumeration(g):
    brute = list(oracles.brute_modules(g))
    witness = find_nontrivial_module(g)
    if witness is None:
        assert brute == []
    else:
        assert 2 <= len(witness.vertices) < g.n
        assert witness.vertices in brute


def test_is_prime_examples():
    assert is_prime(from_edges(2, [(0, 1)]))  # order <= 2 by convention
    assert is_prime(empty_graph(2))
    assert is_prime(path(4))
    assert not is_prime(clique(4))
    assert not is_prime(path(3))


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=7))
def test_is_prime_agrees_with_subset_enumeration(g):
    assert is_prime(g) == oracles.brute_is_prime(g)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10))
def test_is_prime_agrees_with_pair_scan(g):
    assert is_prime(g) == (g.n <= 2 or oracles.pair_scan_module(g) is None)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=9), st.randoms(use_true_random=False))
def test_is_prime_memo_answers_alike_fresh_repeated_and_labelled(g, rng):
    # the memo is keyed on rows alone: a labelled copy shares the entry
    want = oracles.brute_is_prime(g)
    assert want == (g.n <= 2 or oracles.pair_scan_module(g) is None)
    labelled = Graph(g.n, g.rows, tuple(rng.sample(range(100), g.n)))
    for first, other in ((labelled, g), (g, labelled)):
        primes._PRIME_MEMO.pop(g.rows, None)
        assert is_prime(first) == want  # computed
        assert is_prime(first) == want  # read back
        assert is_prime(other) == want  # read back through the other copy


def test_is_prime_memo_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(primes, "PRIME_MEMO_CAP", 5)
    monkeypatch.setattr(primes, "_PRIME_MEMO", {})
    classes = [g for level in enumerate_graphs(5) for g in level]
    for _ in range(2):  # the second pass reads the memo, then recomputes
        for g in classes:
            assert is_prime(g) == oracles.brute_is_prime(g)
        assert len(primes._PRIME_MEMO) == 5


def _witness_mask(g: Graph) -> int | None:
    witness = find_nontrivial_module(g)
    return None if witness is None else sum(1 << v for v in witness.vertices)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10))
def test_witness_is_first_proper_pair_closure(g):
    assert _witness_mask(g) == oracles.pair_scan_module(g)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=9, min_n=1), st.data())
def test_witness_is_first_proper_pair_closure_with_a_twin(g, data):
    # a twin of a vertex other than 0 often leaves every closure through 0
    # full, so the witness has to come from the maximal modules avoiding 0
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    true_twin = data.draw(st.booleans())
    twin = add_vertex(g, g.rows[v] | (true_twin << v))
    assert _witness_mask(twin) == oracles.pair_scan_module(twin)


def _assert_closures_match_oracle(g: Graph) -> None:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert _pair_closure(g, u, v) == oracles.pair_closure(g, u, v)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=9, min_n=1), st.data())
def test_pair_closure_matches_round_robin_oracle_with_a_twin(g, data):
    # the twin makes proper closures common, not only full ones
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    true_twin = data.draw(st.booleans())
    _assert_closures_match_oracle(add_vertex(g, g.rows[v] | (true_twin << v)))


def _fibonacci_with_twin(twin_of: int) -> Graph:
    """Fibonacci L=99 word graph (prime) plus a false twin of one vertex."""
    g = graph_of_word(fibonacci_word(), 99)
    return add_vertex(Graph(g.n, g.rows), g.rows[twin_of])


def test_module_missed_by_every_closure_through_vertex_zero():
    g = _fibonacci_with_twin(99)
    full = (1 << g.n) - 1
    assert all(_pair_closure(g, 0, x) == full for x in range(1, g.n))
    assert not is_prime(g)
    assert find_nontrivial_module(g).vertices == (99, 100)


def test_module_found_by_a_closure_through_vertex_zero():
    g = _fibonacci_with_twin(0)
    assert _pair_closure(g, 0, 100) == (1 << 0) | (1 << 100)
    assert not is_prime(g)
    assert find_nontrivial_module(g).vertices == (0, 100)


@pytest.mark.parametrize("twin_of", [0, 99])
def test_pair_closure_matches_round_robin_oracle_on_101_vertices(twin_of):
    _assert_closures_match_oracle(_fibonacci_with_twin(twin_of))


def test_fibonacci_word_graph_of_length_100_is_prime():
    g = graph_of_word(fibonacci_word(), 100)
    assert g.n == 101
    assert is_prime(g)
    assert find_nontrivial_module(g) is None


@given(graphs(max_n=7))
def test_primality_is_self_complementary(g):
    assert is_prime(g) == is_prime(complement(g))


def test_critically_prime_examples():
    assert is_critically_prime(path(4))
    assert not is_critically_prime(path(5))  # dropping an endpoint leaves P_4
    assert not is_critically_prime(clique(3))
    assert not is_critically_prime(from_edges(2, [(0, 1)]))  # order < 4


def test_schmerl_trotter_examples():
    pair = schmerl_trotter_pair(path(7))
    assert pair is not None
    c, d = pair
    rest = [v for v in range(7) if v not in (c, d)]
    assert is_prime(induced_subgraph(path(7), rest))
    # on P_4 every pair leaves a 2-vertex graph, prime by convention
    assert schmerl_trotter_pair(path(4)) == (0, 1)
    with pytest.raises(PrimalityError):
        schmerl_trotter_pair(clique(3))


def test_schmerl_trotter_all_primes_of_order_seven():
    for g in prime_graphs_of_order(7):
        pair = schmerl_trotter_pair(g)
        assert pair is not None
        rest = [v for v in range(7) if v not in pair]
        assert is_prime(induced_subgraph(g, rest))


def test_prime_height_examples():
    assert prime_height(empty_graph(0)).height == 0
    assert prime_height(empty_graph(1)).height == 1
    assert prime_height(from_edges(2, [(0, 1)])).height == 2
    # P_4: primes strictly below are the empty graph, K_1, K_2 and 2K_1
    assert prime_height(path(4)).height == 3


def test_prime_height_matches_all_subsets_oracle():
    # orders 0..2 are prime by convention; P4 is the one prime of order 4
    for n in range(8):
        for g in prime_graphs_of_order(n):
            assert prime_height(g).height == oracles.exhaustive_prime_height(g)


def test_prime_height_within_the_order_bound_through_order_seven():
    # the early exit in prime_height stops at this bound; no prime has order 3
    for n in range(8):
        for g in prime_graphs_of_order(n):
            assert oracles.exhaustive_prime_height(g) <= (n if n <= 2 else n - 1)


def test_prime_height_matches_all_subsets_oracle_at_order_eight():
    rng = random.Random(8)
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    checked = 0
    while checked < 30:
        g = from_edges(8, [pair for pair in pairs if rng.random() < 0.5])
        if is_prime(g):
            assert prime_height(g).height == oracles.exhaustive_prime_height(g)
            checked += 1


def test_prime_height_cap_and_precondition():
    with pytest.raises(GraphError):
        prime_height(path(9))
    with pytest.raises(PrimalityError):
        prime_height(clique(3))


def test_height_inequality_through_order_six():
    for n in range(2, 7):
        for g in prime_graphs_of_order(n):
            h = prime_height(g).height
            assert h <= g.n <= 2 * (h - 1)


def test_census_small_orders():
    counts = [sum(1 for g in level if is_prime(g)) for level in enumerate_graphs(5)]
    # orders 0..2 by convention; order 3 has none; order 4 only P_4's class
    assert counts[:5] == [1, 1, 2, 0, 1]
    brute5 = sum(1 for g in oracles.brute_iso_classes(5) if oracles.brute_is_prime(g))
    assert counts[5] == brute5
