"""Age enumeration, inclusion, bound certificates, desk checks."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import bit_words, graphs
from wordgraphs.ages import (
    BoundCertificate,
    age_csv,
    age_enumerate,
    age_includes,
    age_to_json,
    bounds_enumerate,
    bounds_to_json,
    jonsson_desk_check,
    jonsson_to_json,
    subsets_in_word_age,
    validate_bound_certificate,
    word_age,
    word_prime_age,
)
from wordgraphs.cli import main
from wordgraphs.graphs import (
    GraphError,
    canonical_key,
    clique,
    complete_bipartite,
    cycle,
    delete_vertex,
    embeds,
    empty_graph,
    enumerate_graphs,
    from_edges,
    induced_subgraph,
    path,
)
from wordgraphs.primes import is_prime
from wordgraphs.wordgraph import graph_of_word
from wordgraphs.words import (ContinuedFraction, explicit_word, factors,
                              fibonacci_word, mechanical_word, periodic_word,
                              substitution_word)


def test_age_of_p5_to_size_three():
    age = age_enumerate(path(5), 3)
    assert age.level_counts() == {0: 1, 1: 1, 2: 2, 3: 3}
    keys3 = age.keys(3)
    assert canonical_key(path(3)) in keys3
    assert canonical_key(empty_graph(3)) in keys3           # 3 isolated vertices
    assert canonical_key(from_edges(3, [(0, 1)])) in keys3  # edge plus a point
    assert canonical_key(clique(3)) not in keys3


def test_age_of_clique():
    age = age_enumerate(clique(3), 3)
    assert age.level_counts() == {0: 1, 1: 1, 2: 1, 3: 1}


def _assert_same_as_subset_oracle(g, k):
    """Each level holds one member per class of k-subsets, by brute force."""
    fast = age_enumerate(g, k)
    slow = oracles.brute_age(g, k)
    for size in range(k + 1):
        classes = [oracles.brute_canonical(m) for m in fast.levels[size].values()]
        assert len(classes) == len(set(classes))
        assert set(classes) == slow[size]


@settings(max_examples=25, deadline=None)
@given(graphs(max_n=7, min_n=1))
def test_age_enumerate_matches_subset_oracle(g):
    _assert_same_as_subset_oracle(g, min(4, g.n))


def test_word_graph_age_matches_subset_oracle():
    _assert_same_as_subset_oracle(graph_of_word(fibonacci_word(), 24), 4)


def _assert_same_as_extension_route(w, L, k):
    """The pattern route equals the extension route, representatives included."""
    fast = word_age(w, L, k)
    slow = age_enumerate(graph_of_word(w, L), k,
                         source_desc=json.dumps({"word_prefix": L}))
    assert fast == slow
    assert list(fast.levels) == list(slow.levels)
    for size in slow.levels:
        assert list(fast.levels[size].items()) == list(slow.levels[size].items())


@settings(max_examples=40, deadline=None)
@given(bit_words, st.data())
def test_word_age_matches_extension_route(bits, data):
    k = data.draw(st.integers(min_value=0, max_value=min(5, len(bits) + 1)))
    _assert_same_as_extension_route(explicit_word(bits), len(bits), k)


@pytest.mark.parametrize("w, L, k", [
    (periodic_word("1"), 60, 6),
    (periodic_word("011"), 60, 6),
    (mechanical_word(ContinuedFraction((2,), (1,)), "slope"), 60, 6),
    (mechanical_word(ContinuedFraction((3,), (1,)), "slope"), 60, 6),
    (fibonacci_word(), 60, 7),
], ids=["ones", "011", "cf-2-(1)", "cf-3-(1)", "fibonacci"])
def test_word_age_matches_extension_route_fixed(w, L, k):
    _assert_same_as_extension_route(w, L, k)


def _assert_same_as_rows_keyed_oracle(w, L, k):
    """States merged by (class, last-vertex position) give the levels and
    forms of one state per pattern."""
    fast = word_age(w, L, k).levels
    slow = oracles.rows_keyed_word_age(w, L, k)
    assert list(fast) == list(slow)
    for size in slow:
        assert list(fast[size].items()) == list(slow[size].items())


@settings(max_examples=40, deadline=None)
@given(bit_words, st.data())
def test_word_age_matches_rows_keyed_oracle(bits, data):
    k = data.draw(st.integers(min_value=0, max_value=min(6, len(bits) + 1)))
    _assert_same_as_rows_keyed_oracle(explicit_word(bits), len(bits), k)


@pytest.mark.parametrize("w, L, k", [
    (fibonacci_word(), 60, 8),
    # the Sturmian pair of verify's sturmian-pair-ages check
    (mechanical_word(ContinuedFraction((2,), (1,)), "slope"), 100, 6),
    (mechanical_word(ContinuedFraction((3,), (1,)), "slope"), 100, 6),
], ids=["fibonacci-8", "cf-2-(1)", "cf-3-(1)"])
def test_word_age_matches_rows_keyed_oracle_fixed(w, L, k):
    _assert_same_as_rows_keyed_oracle(w, L, k)


def test_word_age_rejects_k_max_beyond_source():
    word_age(explicit_word("0110"), 4, 5)  # k_max = L + 1 is the whole graph
    with pytest.raises(GraphError, match="k_max exceeds the source order"):
        word_age(explicit_word("0110"), 4, 6)


def _assert_windows_give_the_prime_members(w, L, k):
    """The window route's levels are the pattern route's prime members,
    keys, forms and order alike."""
    fast = word_prime_age(w, L, k)
    slow = word_age(w, L, k)
    assert (fast.source, fast.source_desc, fast.k_max) == \
        (slow.source, slow.source_desc, slow.k_max)
    assert list(fast.levels) == list(slow.levels)
    for size, level in slow.levels.items():
        assert list(fast.levels[size].items()) == \
            [(key, g) for key, g in level.items() if is_prime(g)]


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="01", max_size=30), st.data())
def test_word_prime_age_matches_filtered_word_age(bits, data):
    k = data.draw(st.integers(min_value=0, max_value=min(7, len(bits) + 1)))
    _assert_windows_give_the_prime_members(explicit_word(bits), len(bits), k)


@pytest.mark.parametrize("w, L, k", [
    (fibonacci_word(), 80, 11),
    (substitution_word({"0": "01", "1": "10"}, "0"), 80, 9),
    (mechanical_word(Fraction(41, 99), "slope"), 80, 9),
    (periodic_word("1"), 40, 8),
    (periodic_word("0"), 40, 8),
    (periodic_word("01"), 40, 8),
    (periodic_word("011"), 40, 8),
    (periodic_word("00101"), 40, 8),
], ids=["fibonacci", "thue-morse", "slope-41/99", "1", "0", "01", "011", "00101"])
def test_word_prime_age_matches_filtered_word_age_fixed(w, L, k):
    _assert_windows_give_the_prime_members(w, L, k)


@pytest.mark.parametrize("seed", range(3))
def test_word_prime_age_matches_the_position_scan_on_dense_levels(seed):
    # a random word of about 300 letters holds more than 128 factors of each
    # length from 8 on, so levels 9..12 read their windows off that many masks
    rng = random.Random(seed)
    L = rng.randint(280, 320)
    w = explicit_word("".join(rng.choice("01") for _ in range(L)))
    assert len(factors(w, 8, L).factors) > 128
    fast, slow = word_prime_age(w, L, 12), oracles.scan_prime_age(w, L, 12)
    assert fast == slow
    assert all(list(fast.levels[k].items()) == list(level.items())
               for k, level in slow.levels.items())


def test_word_prime_age_edges_match_word_age():
    # k_max = L + 1 is the whole graph; L = 0 is one vertex
    _assert_windows_give_the_prime_members(explicit_word("0110"), 4, 5)
    _assert_windows_give_the_prime_members(explicit_word(""), 0, 1)
    _assert_windows_give_the_prime_members(explicit_word(""), 0, 0)
    for route in (word_age, word_prime_age):
        with pytest.raises(GraphError, match="k_max exceeds the source order"):
            route(explicit_word("0110"), 4, 6)
        with pytest.raises(GraphError, match="k_max exceeds the source order"):
            route(explicit_word(""), 0, 2)


@pytest.mark.parametrize("L, k_max, n_max", [(60, 7, 4), (60, 8, 4), (60, 10, 5)])
def test_jonsson_command_matches_pattern_route(capsys, L, k_max, n_max):
    """`jonsson` reads the primes from windows, with the bytes of the desk
    check of word_age's brute-force primes."""
    assert main(["jonsson", "--fib", "--length", str(L), "--k-max", str(k_max),
                 "--n-max", str(n_max)]) == 0
    report = jonsson_desk_check(
        oracles.prime_members(word_age(fibonacci_word(), L, k_max)), n_max=n_max)
    assert capsys.readouterr().out == \
        json.dumps(jonsson_to_json(report), sort_keys=True) + "\n"


@settings(max_examples=20, deadline=None)
@given(graphs(max_n=7, min_n=0))
def test_age_heredity(g):
    age = age_enumerate(g, min(5, g.n))
    for size in range(1, min(5, g.n) + 1):
        for member in age.members(size):
            for v in range(member.n):
                assert canonical_key(delete_vertex(member, v)) in age.keys(size - 1)


def test_age_includes_examples():
    small = age_enumerate(path(5), 3)
    large = age_enumerate(path(9), 3)
    assert age_includes(small, large).included_at_scale
    tri = age_enumerate(clique(3), 3)
    res = age_includes(tri, large)
    assert not res.included_at_scale
    assert canonical_key(res.witness) == canonical_key(clique(3))
    with pytest.raises(GraphError):
        age_includes(age_enumerate(path(9), 4), small)


def test_sturmian_pair_ages_equal_at_five_distinct_at_six():
    # slopes [0;2,1,1,...] and [0;3,1,1,...]: factor sets already differ at
    # n = 3, but the age approximations coincide through k = 5 (verified
    # against exhaustive subset enumeration); the first divergence is k = 6.
    s1 = mechanical_word(ContinuedFraction((2,), (1,)), "slope")
    s2 = mechanical_word(ContinuedFraction((3,), (1,)), "slope")
    assert factors(s1, 3, 60).factors != factors(s2, 3, 60).factors
    a1, a2 = word_age(s1, 60, 5), word_age(s2, 60, 5)
    assert age_includes(a1, a2).included_at_scale
    assert age_includes(a2, a1).included_at_scale
    b1, b2 = word_age(s1, 60, 6), word_age(s2, 60, 6)
    r12, r21 = age_includes(b1, b2), age_includes(b2, b1)
    assert not r12.included_at_scale and not r21.included_at_scale
    # witnesses re-validate against both sources
    assert embeds(r12.witness, b1.source) and not embeds(r12.witness, b2.source)
    assert embeds(r21.witness, b2.source) and not embeds(r21.witness, b1.source)


def test_bounds_of_all_ones_word():
    ones = periodic_word("1")
    k3 = bounds_enumerate(ones, 30, 3)
    assert [c.key for c in k3] == [canonical_key(clique(3))]
    k4 = bounds_enumerate(ones, 40, 4)
    got = {c.key for c in k4}
    assert got == {canonical_key(clique(3)),
                   canonical_key(complete_bipartite(1, 3)),
                   canonical_key(cycle(4))}
    for cert in k4:
        assert validate_bound_certificate(cert, ones, 40)
        assert validate_bound_certificate(cert, ones, 80)


_SMALL_GRAPHS = [g for level in enumerate_graphs(5) for g in level]


def _assert_orders_agree_with_host(graphs, w, L):
    host = graph_of_word(w, L)
    for g in graphs:
        assert oracles.in_word_age(g, w, L) == embeds(g, host), (g, L)


@settings(max_examples=40, deadline=None)
@given(bit_words)
def test_in_word_age_matches_host_embedding(bits):
    _assert_orders_agree_with_host(_SMALL_GRAPHS, explicit_word(bits), len(bits))


_PREFIXES = st.one_of(
    bit_words.map(lambda bits: (explicit_word(bits), len(bits))),
    st.integers(min_value=0, max_value=40).map(lambda L: (fibonacci_word(), L)))


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=6), _PREFIXES)
def test_subsets_in_word_age_match_host_embedding(h, prefix):
    w, L = prefix
    host = graph_of_word(w, L)
    want = {s for s in range(1 << h.n)
            if embeds(induced_subgraph(h, [v for v in range(h.n) if s >> v & 1]),
                      host)}
    assert subsets_in_word_age(h, w, L) == want


def _certificates_and_deletions(certs):
    return [g for c in certs
            for g in [c.graph] + [delete_vertex(c.graph, v) for v in range(c.graph.n)]]


@pytest.mark.parametrize("w, L, k", [
    (fibonacci_word(), 32, 6),
    (fibonacci_word(), 40, 7),
    (periodic_word("1"), 40, 4),
], ids=["fibonacci-6", "fibonacci-7", "ones"])
def test_in_word_age_on_certificates(w, L, k):
    certs = bounds_enumerate(w, L, k)
    graphs_ = _certificates_and_deletions(certs)
    for scale in (L, 2 * L):
        _assert_orders_agree_with_host(graphs_, w, scale)
        assert all(validate_bound_certificate(c, w, scale) for c in certs)
    _assert_orders_agree_with_host(_SMALL_GRAPHS, w, L)


def _forged(g):
    deletions = tuple(sorted(canonical_key(delete_vertex(g, v)) for v in range(g.n)))
    return BoundCertificate(graph=g, key=canonical_key(g), deletion_keys=deletions,
                            non_membership_scale=40)


def test_validation_rejects_a_member_and_a_missing_deletion():
    fib, ones = fibonacci_word(), periodic_word("1")
    # P_4 is a member of every long enough word graph's age
    assert oracles.in_word_age(path(4), fib, 40)
    assert not validate_bound_certificate(_forged(path(4)), fib, 40)
    # the word graph of 1^L is a path: K_4 misses it, and so does its K_3
    assert not oracles.in_word_age(clique(4), ones, 40)
    assert not oracles.in_word_age(clique(3), ones, 40)
    assert not validate_bound_certificate(_forged(clique(4)), ones, 40)


def test_bound_certificate_deletions_recorded():
    ones = periodic_word("1")
    (cert,) = bounds_enumerate(ones, 30, 3)
    assert cert.non_membership_scale == 30
    assert len(cert.deletion_keys) == 3
    assert set(cert.deletion_keys) == {canonical_key(from_edges(2, [(0, 1)]))}


def test_fibonacci_bound_counts_grow_and_persist():
    fib = fibonacci_word()
    per_k = {k: bounds_enumerate(fib, 60, k) for k in (4, 5, 6)}
    counts = [len(per_k[k]) for k in (4, 5, 6)]
    assert counts == [1, 2, 22]
    assert counts[0] < counts[1] < counts[2]
    # no certificate is retracted when k grows at fixed L
    assert {c.key for c in per_k[4]} <= {c.key for c in per_k[5]}
    assert {c.key for c in per_k[5]} <= {c.key for c in per_k[6]}


def _certificate_rows(certs):
    return [(c.graph.rows, c.key, c.deletion_keys, c.non_membership_scale)
            for c in certs]


@pytest.mark.parametrize("w, L, k", [
    (fibonacci_word(), 32, 6),
    (fibonacci_word(), 40, 7),
    (periodic_word("01"), 60, 6),
    (periodic_word("011"), 60, 6),
    (periodic_word("1"), 40, 4),
    (mechanical_word(ContinuedFraction((3,), (1,)), "slope"), 60, 6),
], ids=["fibonacci-6", "fibonacci-7", "01", "011", "ones", "cf-3-1"])
def test_bounds_match_all_masks_oracle(w, L, k):
    # candidates by canonical deletion give the certificates of every mask
    assert _certificate_rows(bounds_enumerate(w, L, k)) == \
        _certificate_rows(oracles.all_masks_bounds(w, L, k))


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="01", min_size=12, max_size=40),
       st.integers(min_value=1, max_value=5))
def test_bounds_match_all_masks_oracle_on_explicit_words(bits, k):
    w = explicit_word(bits)
    assert _certificate_rows(bounds_enumerate(w, len(bits), k)) == \
        _certificate_rows(oracles.all_masks_bounds(w, len(bits), k))


def test_jonsson_path_age():
    rep = jonsson_desk_check(oracles.prime_members(age_enumerate(path(30), 8, "path")),
                             n_max=5)
    # primes of a path's age: the paths of each order plus the order-two
    # convention classes (both K_2 and its complement count)
    assert rep.level_counts == {0: 1, 1: 1, 2: 2, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
    assert rep.cofinality == {0: 0, 1: 1, 2: 3, 3: 3, 4: 3, 5: 5}
    assert not rep.degenerate


def test_jonsson_fibonacci_at_size_eight():
    age = oracles.prime_members(word_age(fibonacci_word(), 60, 8))
    rep = jonsson_desk_check(age, n_max=5)
    assert rep.level_counts == {0: 1, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2,
                                6: 5, 7: 9, 8: 12}
    assert rep.cofinality[4] == 3
    # at this scale the table stops: a five-vertex prime member misses one
    # of the eight-vertex prime members (m(5) first exists at k_max = 10)
    assert rep.cofinality[5] is None
    assert 5 in rep.failure_witnesses
    _assert_witnesses_miss_a_top_host(age, rep)


def _assert_witnesses_miss_a_top_host(age, rep):
    for n, (small, host) in rep.failure_witnesses.items():
        assert rep.cofinality[n] is None
        assert small.n <= n and host.n == age.k_max
        assert not embeds(small, host)


_JONSSON_AGES = {
    "path": lambda: age_enumerate(path(30), 8, "path"),
    "fibonacci": lambda: word_age(fibonacci_word(), 60, 7),
    "011": lambda: word_age(periodic_word("011"), 60, 7),
}


# the members the desk check walks: the brute-force primes, or all of them
_JONSSON_CUTS = pytest.mark.parametrize(
    "cut", [oracles.prime_members, lambda age: age], ids=["primes", "all"])


@pytest.mark.parametrize("source", sorted(_JONSSON_AGES))
@_JONSSON_CUTS
def test_jonsson_table_matches_rescan_oracle(source, cut):
    age = cut(_JONSSON_AGES[source]())
    rep = jonsson_desk_check(age, n_max=age.k_max + 1)
    members = {size: age.members(size) for size in age.levels}
    assert rep.cofinality == {n: oracles.rescan_cofinality(members, age.k_max, n)
                              for n in range(age.k_max + 2)}
    assert set(rep.failure_witnesses) == {
        n for n, m in rep.cofinality.items() if m is None}
    _assert_witnesses_miss_a_top_host(age, rep)


@pytest.mark.parametrize("k_max", range(5))
@_JONSSON_CUTS
def test_jonsson_matches_walk_of_every_member(k_max, cut):
    """Small scales, where the empty graph and a single vertex decide m(0)
    and m(1) with the same walk as every other member."""
    for age in (word_age(fibonacci_word(), 30, k_max),
                word_age(periodic_word("011"), 30, k_max),
                age_enumerate(path(9), k_max, "path")):
        age = cut(age)
        rep = jonsson_desk_check(age, n_max=k_max + 1)
        members = {size: age.members(size) for size in age.levels}
        assert rep.cofinality == {n: oracles.rescan_cofinality(members, k_max, n)
                                  for n in range(k_max + 2)}
        assert set(rep.failure_witnesses) == {
            n for n, m in rep.cofinality.items() if m is None}
        _assert_witnesses_miss_a_top_host(age, rep)


def test_jonsson_reports_what_its_route_holds():
    # prime_only is the age's, so no call can mislabel what it walked
    w = fibonacci_word()
    for age, prime_only in ((word_prime_age(w, 30, 5), True),
                            (word_age(w, 30, 5), False),
                            (age_enumerate(path(9), 5, "path"), False)):
        assert age.prime_only is prime_only
        rep = jonsson_desk_check(age, n_max=3)
        assert rep.prime_only is prime_only
        assert jonsson_to_json(rep)["prime_only"] is prime_only


@pytest.mark.parametrize("argv", [
    ["--k-max", "2", "--n-max", "2", "--all-members"],
    ["--k-max", "3", "--n-max", "2"],
    ["--k-max", "3", "--n-max", "3"],
])
def test_jonsson_is_not_degenerate_below_size_four(capsys, argv):
    # no prime has order 3, so an age cut at size 2 or 3 cannot show its
    # members stopping at size 2
    assert main(["jonsson", "--fib", "--length", "10"] + argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is False and doc["note"] == ""


def test_jonsson_degenerate_clique():
    rep = jonsson_desk_check(oracles.prime_members(age_enumerate(clique(9), 6)),
                             n_max=3)
    assert rep.degenerate
    assert rep.level_counts[3] == 0 and rep.level_counts[6] == 0
    assert "degenerate" in rep.note


def test_age_stability_under_doubled_prefix():
    fib = fibonacci_word()
    small = word_age(fib, 30, 4)
    large = word_age(fib, 60, 4)
    for size in range(5):
        assert small.keys(size) == large.keys(size)


def test_serialization_shapes():
    age = age_enumerate(path(5), 3)
    doc = age_to_json(age)
    assert doc["k_max"] == 3 and doc["levels"]["3"]
    assert age_csv(age).splitlines()[0] == "size,member_count"
    ones = periodic_word("1")
    blob = bounds_to_json(bounds_enumerate(ones, 30, 3))
    assert blob[0]["graph6"] == "Bw" and blob[0]["order"] == 3
