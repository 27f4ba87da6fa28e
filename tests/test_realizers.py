"""Realizer construction and validation, with the strict-order oracle."""

import itertools
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import Poset, intersection_order
from wordgraphs import realizers
from wordgraphs.graphs import (Graph, GraphError, canonical_key, clique, empty_graph,
                               induced_subgraph)
from wordgraphs.primes import is_prime
from wordgraphs.realizers import (
    Realizer,
    build_realizer,
    realizer_for_word_graph,
    realizer_from_json,
    realizer_to_json,
    validate_realizer,
)
from wordgraphs.wordgraph import graph_of_word
from wordgraphs.words import fibonacci_word


def _assert_strict_order(r: Realizer) -> None:
    """Oracle: the intersection of the two orders is a strict partial order.

    ``validate_realizer`` builds no order relation, since two linear orders
    always intersect in one; ``oracles.intersection_order`` builds a
    ``Poset``, whose constructor visits the order's pairs one by one
    (raising on a reflexive pair, a 2-cycle or a broken transitivity).
    """
    intersection_order(r.first, r.second)


def _realizer(word: str) -> Realizer:
    r = build_realizer(word)
    _assert_strict_order(r)
    return r


def _realizer_for_word_graph(word: str) -> tuple[Realizer, Graph, bool]:
    r, g, ok = realizer_for_word_graph(word)
    _assert_strict_order(r)
    return r, g, ok


def test_base_cases():
    r = _realizer("")
    assert r.first == (-1,) and r.second == (-1,)
    assert validate_realizer(r, graph_of_word("", 0))
    r1, g1, ok1 = _realizer_for_word_graph("1")
    assert ok1 and oracles.edge_count(g1) == 1


def test_all_words_up_to_length_eight_validate():
    for n in range(9):
        for bits in itertools.product("01", repeat=n):
            word = "".join(bits)
            r, g, ok = _realizer_for_word_graph(word)
            assert ok, f"validation failed for word {word!r}"


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=9, max_size=24))
def test_random_longer_words_validate(word):
    _, _, ok = _realizer_for_word_graph(word)
    assert ok


def test_restricted_realizer_still_validates():
    word = "0110100101"
    r, g, ok = _realizer_for_word_graph(word)
    assert ok
    rng = random.Random(7)
    labels = [g.label_of(i) for i in range(g.n)]
    for _ in range(20):
        keep = sorted(rng.sample(labels, rng.randint(0, g.n)))
        sub_idx = [oracles.index_of_label(g, v) for v in keep]
        sub = induced_subgraph(g, sub_idx)
        # restricting both orders realizes the induced suborder
        rr = Realizer(tuple(v for v in r.first if v in keep),
                      tuple(v for v in r.second if v in keep))
        _assert_strict_order(rr)
        assert validate_realizer(rr, sub)


def test_validate_realizer_trivial_cases():
    same = Realizer((0, 1, 2), (0, 1, 2))
    assert validate_realizer(same, clique(3))
    opposite = Realizer((0, 1, 2), (2, 1, 0))
    _assert_strict_order(same)
    _assert_strict_order(opposite)
    assert validate_realizer(opposite, empty_graph(3))
    with pytest.raises(GraphError):
        validate_realizer(same, clique(4))


def test_intersection_order_examples():
    chain = intersection_order((1, 2, 3), (1, 2, 3))
    assert chain.less(1, 2) and chain.less(2, 3) and chain.less(1, 3)
    anti = intersection_order((1, 2, 3), (3, 2, 1))
    assert not any(anti.less(a, b) for a in (1, 2, 3) for b in (1, 2, 3))
    mixed = intersection_order((1, 2, 3), (2, 1, 3))
    comparable = {(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if mixed.less(a, b)}
    assert comparable == {(1, 3), (2, 3)}


def test_poset_validation_tripwires():
    with pytest.raises(GraphError):
        Poset((0, 1), (1, 0))  # reflexive
    with pytest.raises(GraphError):
        Poset((0, 1), (2, 1))  # 2-cycle
    with pytest.raises(GraphError):
        Poset((0, 1, 2), (2, 4, 0))  # 0 < 1 < 2 without 0 < 2


def test_realizer_json_round_trip():
    r = _realizer("0101")
    back = realizer_from_json(realizer_to_json(r))
    assert back == r
    # a document from outside must give both orders one vertex set, each
    # vertex once
    docs = [{"first": [0, 1], "second": [0, 2]},
            {"first": [0, 0, 1], "second": [0, 1, 1]}]
    for word in ("01", "0110100110"):
        doc = realizer_to_json(build_realizer(word))
        doc["second"].append(doc["second"][-1])  # the second order's top, twice
        docs.append(doc)
    for doc in docs:
        with pytest.raises(GraphError, match="same vertex set, each vertex once"):
            realizer_from_json(doc)


def _relabelled(g: Graph, perm: list[int]) -> Graph:
    """Index k holds vertex perm[k] of g, with its label."""
    where = {v: k for k, v in enumerate(perm)}
    rows = tuple(sum(1 << where[w] for w in range(g.n) if oracles.has_edge(g, v, w))
                 for v in perm)
    return Graph(g.n, rows, tuple(g.label_of(v) for v in perm))


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="01", max_size=30), st.data())
def test_validation_matches_label_pair_oracle(word, data):
    r = _realizer(word)
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
        _assert_strict_order(swapped)
        for host in (g, _relabelled(g, perm)):
            assert (validate_realizer(swapped, host)
                    == oracles.realizer_realizes(swapped.first, swapped.second, host))


def test_validation_of_fibonacci_six_hundred_matches_oracle():
    word = fibonacci_word().prefix(600)
    r, g, ok = _realizer_for_word_graph(word)
    assert ok and oracles.realizer_realizes(r.first, r.second, g)
    second = list(r.second)
    second[0], second[-1] = second[-1], second[0]
    swapped = Realizer(r.first, tuple(second))
    _assert_strict_order(swapped)
    assert not validate_realizer(swapped, g)
    assert not oracles.realizer_realizes(swapped.first, swapped.second, g)


def test_builder_matches_reference_on_every_word_up_to_twelve():
    for n in range(13):
        for bits in itertools.product("01", repeat=n):
            word = "".join(bits)
            assert build_realizer(word) == oracles.reference_realizer(word), word


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="01", min_size=13, max_size=700))
def test_builder_matches_reference_on_long_words(word):
    assert build_realizer(word) == oracles.reference_realizer(word)


def test_realizer_key_splits_prime_permutation_graphs_as_canonical_key():
    # every permutation graph of order 4..7, realized by the identity and
    # the permutation: the realizer key is a complete invariant of the
    # prime ones, so it splits them exactly as canonical_key does.  A key
    # that drops one of its four symmetries splits some class at order 6
    for n in range(4, 8):
        key_of_class, class_of_key = {}, {}
        for second in itertools.permutations(range(n)):
            at = {v: i for i, v in enumerate(second)}
            rows = tuple(sum(1 << b for b in range(n)
                             if b != a and (a < b) == (at[a] < at[b]))
                         for a in range(n))
            g, r = Graph(n, rows), Realizer(tuple(range(n)), second)
            assert validate_realizer(r, g)
            if not is_prime(g):
                continue
            key, canon = oracles.realizer_key(r), canonical_key(g)
            assert key_of_class.setdefault(canon, key) == key, second
            assert class_of_key.setdefault(key, canon) == canon, second
        assert len(key_of_class) == len(class_of_key) > 0


class _PopsBottom(deque):
    """A deque whose ``pop`` takes the left end, so a step misreads the top."""

    def pop(self):
        return self.popleft()


def test_tripwire_catches_a_misread_top(monkeypatch):
    monkeypatch.setattr(realizers, "deque", _PopsBottom)
    build_realizer("0")  # one vertex per order: both ends agree
    with pytest.raises(AssertionError, match="tops the order"):
        build_realizer("00")


def test_tripwire_survives_optimize_and_exits_1():
    # python -O strips assert statements; the tripwire is a plain raise
    code = (
        "import sys\n"
        "from collections import deque\n"
        "from wordgraphs import cli, realizers\n"
        "class PopsBottom(deque):\n"
        "    def pop(self):\n"
        "        return self.popleft()\n"
        "realizers.deque = PopsBottom\n"
        "sys.exit(cli.main(['realizer', '--word', '00']))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("internal invariant violation: vertex -1, not 0")
