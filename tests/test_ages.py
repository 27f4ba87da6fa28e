"""Age enumeration, inclusion, bound certificates, desk checks."""

import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import bit_words, graphs
from wordgraphs import ages, primes, realizers
from wordgraphs.ages import (
    BoundCertificate,
    age_csv,
    age_enumerate,
    age_to_json,
    bound_scales,
    bounds_enumerate,
    bounds_to_json,
    jonsson_desk_check,
    jonsson_to_json,
    missing_member,
    subsets_in_word_age,
    validate_bound_certificate,
    word_age,
)
from wordgraphs.cli import main
from wordgraphs.graph6 import to_graph6
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
from wordgraphs.realizers import build_realizer
from wordgraphs.wordgraph import graph_of_word
from wordgraphs.words import (ContinuedFraction, WordError, explicit_word,
                              factor_complexity, fibonacci_word,
                              mechanical_word, periodic_word, substitution_word)


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


def _prime_classes(w, L, k):
    """Per order, the canonical keys of the classes that ``_prime_age``
    keys: a form is keyed iff its graph is prime, and its key and its
    canonical key name the same class (one of each per class)."""
    levels, key_of = ages._prime_age(w, L, k)
    assert list(levels) == list(range(k + 1)) and levels[0] == {"-"}
    canon_of = {size: {} for size in range(1, k + 1)}
    for u, key in key_of.items():
        g = graph_of_word(u)
        assert (key is None) == (not is_prime(g)), u
        if key is not None:
            canon = canonical_key(g)
            assert canon_of[g.n].setdefault(key, canon) == canon, u
    for size, canon in canon_of.items():
        assert set(canon) == levels[size]
        assert len(set(canon.values())) == len(canon)
    return {0: {canonical_key(empty_graph(0))},
            **{size: set(canon.values()) for size, canon in canon_of.items()}}


def _assert_prime_age_is_the_scan(w, L, k):
    """The keyed classes are the windows the position scan slices out of
    the prefix graph."""
    scan = oracles.scan_prime_age(w, L, k)
    assert _prime_classes(w, L, k) == \
        {size: set(level) for size, level in scan.levels.items()}


def _assert_windows_give_the_prime_members(w, L, k):
    """The keyed classes are the full walk's prime members and the position
    scan's windows."""
    assert _prime_classes(w, L, k) == \
        {size: {key for key, g in level.items() if is_prime(g)}
         for size, level in word_age(w, L, k).levels.items()}
    _assert_prime_age_is_the_scan(w, L, k)


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
    # length from 8 on, so levels 9..12 are dense: each holds more factors
    # than a level of factor masks may (words._MASK_LEVEL_LIMIT)
    rng = random.Random(seed)
    L = rng.randint(280, 320)
    w = explicit_word("".join(rng.choice("01") for _ in range(L)))
    assert len(oracles.factor_set(w.prefix(L), 8)) > 128
    _assert_prime_age_is_the_scan(w, L, 12)


def test_word_prime_age_matches_the_position_scan_on_every_short_word():
    for n in range(9):
        for bits in itertools.product("01", repeat=n):
            w = explicit_word("".join(bits))
            for k in range(n + 2):
                _assert_prime_age_is_the_scan(w, n, k)


def test_word_prime_age_classifies_one_window_per_normal_form(monkeypatch):
    # level 1 is one vertex and level 2 one edge and one non-edge; from
    # level 3 on, a normal form (u[0], u[2:]) holds one letter and a factor
    # of length k - 3, so level k tests at most 2 p(k - 3) windows for
    # primality and keys no more
    w, L, k = fibonacci_word(), 300, 12
    classified = []
    prime_form = ages._prime_form

    def counted(u):
        classified.append(u)
        return prime_form(u)

    def never(*args):
        raise AssertionError("the factor read walks no patterns")

    monkeypatch.setattr(ages, "_prime_form", counted)
    monkeypatch.setattr(ages, "_extend_patterns", never)
    monkeypatch.setattr(ages, "add_vertex", never)
    key_of = ages._prime_age(w, L, k)[1]
    p = [1] + factor_complexity(w, L, k - 3)
    assert len(key_of) == len(classified) <= 1 + 2 + 2 * sum(p) == 113


def test_window_identities_on_every_short_factor():
    """The interval window over f is the word graph of f, the gap window
    is the word graph of f with its first letter flipped, and flipping f[1]
    keeps the class."""
    flip = {"0": "1", "1": "0"}
    for n in range(2, 11):
        for bits in itertools.product("01", repeat=n):
            f = "".join(bits)
            for first in "01":  # f starts at 1, after one more letter
                prefix = graph_of_word(first + f)
                assert induced_subgraph(prefix, range(1, n + 2)).rows == \
                    graph_of_word(f).rows
                assert induced_subgraph(prefix, [0, *range(2, n + 2)]).rows == \
                    graph_of_word(flip[f[0]] + f[1:]).rows
            assert canonical_key(graph_of_word(f)) == \
                canonical_key(graph_of_word(f[0] + flip[f[1]] + f[2:]))


def test_word_prime_age_edges_match_word_age():
    # k_max = L + 1 is the whole graph; L = 0 is one vertex
    _assert_windows_give_the_prime_members(explicit_word("0110"), 4, 5)
    _assert_windows_give_the_prime_members(explicit_word(""), 0, 1)
    _assert_windows_give_the_prime_members(explicit_word(""), 0, 0)


@pytest.mark.parametrize("route", [word_age, jonsson_desk_check, bounds_enumerate])
@pytest.mark.parametrize("w, L, k_max, error, message", [
    (fibonacci_word(), -1, 0, GraphError, "prefix length must be a nonnegative integer"),
    (fibonacci_word(), -1, 2, GraphError, "prefix length must be a nonnegative integer"),
    (explicit_word("0110"), 5, 3, WordError, "explicit word has only 4 letters"),
    (explicit_word("0110"), 4, 6, GraphError, "k_max exceeds the source order"),
    (explicit_word(""), 0, 2, GraphError, "k_max exceeds the source order"),
], ids=["negative-L", "negative-L-k2", "word-shorter-than-L", "k_max-past-order",
        "k_max-past-one-vertex"])
def test_word_routes_keep_their_errors(route, w, L, k_max, error, message):
    """A bad prefix length raises the word graph builder's own error, before
    the order check; bounds_enumerate checks L >= k_max first, and the
    desk check's table stops at k_max."""
    if route is bounds_enumerate and L < k_max:
        error, message = GraphError, "prefix length must be at least k_max"
    args = (w, L, k_max, k_max) if route is jonsson_desk_check else (w, L, k_max)
    with pytest.raises(ValueError) as raised:
        route(*args)
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("route, args", [
    (word_age, (fibonacci_word(), 20, -1)),
    (age_enumerate, (graph_of_word(fibonacci_word(), 20), -1)),
    (bounds_enumerate, (fibonacci_word(), 20, -1)),
    (jonsson_desk_check, (fibonacci_word(), 20, -1, -1)),
], ids=["word_age", "age_enumerate", "bounds_enumerate", "jonsson_desk_check"])
def test_age_routes_refuse_a_negative_k_max(route, args):
    with pytest.raises(GraphError, match="k_max must be nonnegative"):
        route(*args)


@pytest.mark.parametrize("route, k_max", [
    (jonsson_desk_check, 12), (word_age, 5), (bounds_enumerate, 4)])
def test_word_routes_never_build_the_prefix_graph(route, k_max):
    # the 20,001-vertex prefix graph alone holds about 50 MiB of rows
    w = fibonacci_word()
    tracemalloc.start()
    try:
        route(w, 20_000, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("L, k_max, n_max", [(60, 7, 4), (60, 8, 4), (60, 10, 5)])
def test_jonsson_command_matches_pattern_route(capsys, L, k_max, n_max):
    """`jonsson` prints the desk check's report, whose table is the one of
    word_age's brute-force primes."""
    assert main(["jonsson", "--fib", "--length", str(L), "--k-max", str(k_max),
                 "--n-max", str(n_max)]) == 0
    report = jonsson_desk_check(fibonacci_word(), L, k_max, n_max)
    assert capsys.readouterr().out == \
        json.dumps(jonsson_to_json(report), sort_keys=True) + "\n"
    assert (report.level_counts, report.cofinality) == \
        _rescanned_table(fibonacci_word(), L, k_max, n_max)


@settings(max_examples=20, deadline=None)
@given(graphs(max_n=7, min_n=0))
def test_age_heredity(g):
    age = age_enumerate(g, min(5, g.n))
    for size in range(1, min(5, g.n) + 1):
        for member in age.levels[size].values():
            for v in range(member.n):
                assert canonical_key(delete_vertex(member, v)) in age.keys(size - 1)


def test_missing_member_examples():
    small = age_enumerate(path(5), 3)
    large = age_enumerate(path(9), 3)
    assert missing_member(small, large) is None
    tri = age_enumerate(clique(3), 3)
    assert canonical_key(missing_member(tri, large)) == canonical_key(clique(3))
    with pytest.raises(GraphError):
        missing_member(age_enumerate(path(9), 4), small)


def test_sturmian_pair_ages_equal_at_five_distinct_at_six():
    # slopes [0;2,1,1,...] and [0;3,1,1,...]: factor sets already differ at
    # n = 3, but the age approximations coincide through k = 5 (verified
    # against exhaustive subset enumeration); the first divergence is k = 6.
    s1 = mechanical_word(ContinuedFraction((2,), (1,)), "slope")
    s2 = mechanical_word(ContinuedFraction((3,), (1,)), "slope")
    assert oracles.factor_set(s1.prefix(60), 3) != \
        oracles.factor_set(s2.prefix(60), 3)
    a1, a2 = word_age(s1, 60, 5), word_age(s2, 60, 5)
    assert missing_member(a1, a2) is None
    assert missing_member(a2, a1) is None
    b1, b2 = word_age(s1, 60, 6), word_age(s2, 60, 6)
    g12, g21 = missing_member(b1, b2), missing_member(b2, b1)
    assert g12 is not None and g21 is not None
    # witnesses re-validate against both word graphs
    g1, g2 = graph_of_word(s1, 60), graph_of_word(s2, 60)
    assert embeds(g12, g1) and not embeds(g12, g2)
    assert embeds(g21, g2) and not embeds(g21, g1)


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
    assert subsets_in_word_age(h, w, L).keys() == want


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=6), _PREFIXES, st.data())
def test_least_scales_answer_every_smaller_scale(h, prefix, data):
    # one walk at L holds the walk at every t <= L: the sets whose least
    # length is at most t
    w, L = prefix
    least = subsets_in_word_age(h, w, L)
    for t in range(L + 1):
        assert {s for s, at in least.items() if at <= t} == \
            subsets_in_word_age(h, w, t).keys(), t
    t = data.draw(st.integers(min_value=0, max_value=L))
    host = graph_of_word(w, t)
    assert {s for s, at in least.items() if at <= t} == {
        s for s in range(1 << h.n)
        if embeds(induced_subgraph(h, [v for v in range(h.n) if s >> v & 1]), host)}


def _certificate(w, L, k, graph6):
    (cert,) = [c for c in bounds_enumerate(w, L, k) if to_graph6(c.graph) == graph6]
    return cert


def test_short_lived_certificates_fail_outside_their_scales():
    fib = fibonacci_word()
    # CJ is a bound of the length-4 prefix and of the length-5 one only
    cj = _certificate(fib, 4, 4, "CJ")
    assert bound_scales(cj, fib, 8) == range(4, 6)
    assert validate_bound_certificate(cj, fib, 4)
    assert validate_bound_certificate(cj, fib, 5)
    assert not validate_bound_certificate(cj, fib, 4, 8)
    assert not validate_bound_certificate(cj, fib, 8)
    # the four isolated vertices are a bound at L = 5, where their last
    # deletion first appears, and not at 4
    empty4 = _certificate(fib, 5, 4, "C?")
    assert bound_scales(empty4, fib, 5).start == 5
    assert validate_bound_certificate(empty4, fib, 5)
    assert not validate_bound_certificate(empty4, fib, 4)
    assert not validate_bound_certificate(empty4, fib, 4, 5)


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


def _rescanned_table(w, L, k_max, n_max):
    """The desk check's level counts and m(n), n <= n_max, by the oracle:
    word_age cut to its brute-force primes, every pair rescanned for each m."""
    age = oracles.prime_members(word_age(w, L, k_max))
    members = {size: list(level.values()) for size, level in age.levels.items()}
    return age.level_counts(), {n: oracles.rescan_cofinality(members, k_max, n)
                                for n in range(n_max + 1)}


def test_jonsson_path_age():
    # the word graph of 1^29 is the path on 30 vertices
    rep = jonsson_desk_check(periodic_word("1"), 29, 8, n_max=5)
    # primes of a path's age: the paths of each order plus the order-two
    # convention classes (both K_2 and its complement count)
    assert rep.level_counts == {0: 1, 1: 1, 2: 2, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
    assert rep.cofinality == {0: 0, 1: 1, 2: 3, 3: 3, 4: 3, 5: 5}
    assert not rep.degenerate


def test_jonsson_fibonacci_at_size_eight():
    rep = jonsson_desk_check(fibonacci_word(), 60, 8, n_max=5)
    assert rep.level_counts == {0: 1, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2,
                                6: 5, 7: 9, 8: 12}
    assert rep.cofinality[4] == 3
    # at this scale the table stops: a five-vertex prime member misses one
    # of the eight-vertex prime members (m(5) first exists at k_max = 10)
    assert rep.cofinality[5] is None
    age = oracles.scan_prime_age(fibonacci_word(), 60, 8)
    assert any(not embeds(s, h) for s in age.levels[5].values()
               for h in age.levels[8].values())


_JONSSON_WORDS = {
    "path": (periodic_word("1"), 29, 8),
    "fibonacci": (fibonacci_word(), 60, 7),
    "011": (periodic_word("011"), 60, 7),
}


def _assert_table_of_every_member_is_empty_past_one(w, L, k_max):
    """The table over all members, which the desk check no longer offers, by
    Ramsey's theorem: a word graph holds an edge and a non-edge, and the
    prefix graph holds a clique or an independent set of k_max vertices,
    which misses one of them, so m(n) exists only for n <= 1."""
    age = word_age(w, L, k_max)
    members = {size: list(level.values()) for size, level in age.levels.items()}
    top = [canonical_key(g) for g in (clique(k_max), empty_graph(k_max))]
    assert k_max < 2 or any(key in age.levels[k_max] for key in top)
    assert [oracles.rescan_cofinality(members, k_max, n) for n in range(k_max + 1)] \
        == [0, 1, *[None] * (k_max - 1)][:k_max + 1]


# the members whose table is checked: the primes, which the desk check
# reads, or all of them, whose table is empty past size one
_JONSSON_CUTS = pytest.mark.parametrize("cut", ["primes", "all"])


@pytest.mark.parametrize("source", sorted(_JONSSON_WORDS))
@_JONSSON_CUTS
def test_jonsson_table_matches_rescan_oracle(source, cut):
    w, L, k_max = _JONSSON_WORDS[source]
    if cut == "all":
        _assert_table_of_every_member_is_empty_past_one(w, L, k_max)
        return
    rep = jonsson_desk_check(w, L, k_max, n_max=k_max)
    assert (rep.level_counts, rep.cofinality) == _rescanned_table(w, L, k_max, k_max)


@pytest.mark.parametrize("k_max", range(5))
@_JONSSON_CUTS
def test_jonsson_matches_walk_of_every_member(k_max, cut):
    """Small scales, where the empty graph and a single vertex decide m(0)
    and m(1) by the same containment read as every other member."""
    for w, L in ((fibonacci_word(), 30), (periodic_word("011"), 30),
                 (periodic_word("1"), 8)):
        if cut == "all":
            _assert_table_of_every_member_is_empty_past_one(w, L, k_max)
            continue
        rep = jonsson_desk_check(w, L, k_max, n_max=k_max)
        assert (rep.level_counts, rep.cofinality) == \
            _rescanned_table(w, L, k_max, k_max)


def test_jonsson_matches_the_rescan_on_every_short_word():
    for n in range(7):
        for bits in itertools.product("01", repeat=n):
            w = explicit_word("".join(bits))
            for k in range(n + 2):
                rep = jonsson_desk_check(w, n, k, n_max=k)
                assert (rep.level_counts, rep.cofinality) == \
                    _rescanned_table(w, n, k, k), ("".join(bits), k)


def _assert_drops_give_the_level_below(w, L, k):
    levels = ages._window_forms(w, L, k)
    for j in range(1, k):  # orders j + 1 and j
        assert {v for u in levels[j] for v in ages._drops(u)} == levels[j - 1], j


def test_window_forms_drop_to_the_level_below():
    """The drop lemma on strings: the drops of the window forms of order
    j + 1 are the window forms of order j, for every j < k <= L + 1."""
    for n in range(9):
        for bits in itertools.product("01", repeat=n):
            _assert_drops_give_the_level_below(explicit_word("".join(bits)), n, n + 1)
    rng = random.Random(34)
    for _ in range(40):
        L = rng.randint(20, 120)
        w = explicit_word("".join(rng.choice("01") for _ in range(L)))
        _assert_drops_give_the_level_below(w, L, 14)
    _assert_drops_give_the_level_below(fibonacci_word(), 2000, 40)
    _assert_drops_give_the_level_below(substitution_word({"0": "01", "1": "10"}, "0"),
                                       400, 30)


def test_drops_are_the_vertex_deletions_of_a_form():
    # less its last, first and second vertex, the word graph of a normal
    # form u is the word graph of each of its drops, up to isomorphism
    for n in range(2, 10):
        for bits in itertools.product("01", repeat=n - 1):
            u = bits[0] + "0" + "".join(bits[1:])
            g = graph_of_word(u)
            assert [canonical_key(delete_vertex(g, v)) for v in (n, 0, 1)] == \
                [canonical_key(graph_of_word(d)) for d in ages._drops(u)], u
    assert ages._drops("1") == ("", "") and ages._drops("") == ()


@pytest.fixture
def fresh_prime_memo(monkeypatch):
    """An empty memo for ``is_prime``, so that a test neither fills the
    process's memo nor reads what earlier tests left in it."""
    monkeypatch.setattr(primes, "_PRIME_MEMO", {})
    monkeypatch.setattr(primes, "_prime_memo_bits", 0)


def test_prime_form_is_the_module_search(fresh_prime_memo):
    """The rule holds on every normal form of orders 1 to 14, and on the
    four families, their near misses and random forms of orders 65 to 130."""
    forms = [u for n in range(14)
             for u in map("".join, itertools.product("01", repeat=n)) if u[1:2] != "1"]
    rng = random.Random(37)
    flip = {"0": "1", "1": "0"}
    for k in rng.sample(range(65, 131), 12):
        m = k - 3
        for b, y in (("0", "1"), ("1", "0")):
            for t in (y * m, y * (m - 2) + b + y):
                i = rng.randrange(m)
                forms += [b + "0" + t, flip[b] + "0" + t,
                          b + "0" + t[:i] + flip[t[i]] + t[i + 1:]]
        forms += ["".join(rng.choice("01") for _ in range(k - 1)) for _ in range(2)]
    assert [u for u in forms if ages._prime_form(u) != is_prime(graph_of_word(u))] == []


def test_prime_forms_merge_only_in_two_pairs():
    """Prime forms of one order share a class, by the realizer key of
    Gallai's theorem, iff they share a ``_prime_key``: only
    (0, 0^(m-2)10) ~ (1, 0^(m-1)1) and (0, 1^(m-1)0) ~ (1, 1^(m-2)01), one
    pair at k = 5, merge, and at k = 4 the two prime forms are both the
    path P4.  So word graphs hold 2^(k-2) - 6 prime classes of order
    k >= 6."""
    for k in range(4, 19):
        m = k - 3
        forms, keys = {}, {}
        for bits in itertools.product("01", repeat=k - 2):
            u = bits[0] + "0" + "".join(bits[1:])
            if ages._prime_form(u):
                key = oracles.realizer_key(build_realizer(u))
                forms.setdefault(key, set()).add(u)
                assert keys.setdefault(ages._prime_key(u), key) == key, u
        assert len(keys) == len(forms), k
        # a class's key is one of its own forms
        assert all(key in forms[oracle] for key, oracle in keys.items()), k
        merged = {frozenset(us) for us in forms.values() if len(us) > 1}
        assert merged == ({frozenset({"000", "101"})} if k == 4 else {
            frozenset({"00" + "0" * (m - 2) + "10", "10" + "0" * (m - 1) + "1"}),
            frozenset({"00" + "1" * (m - 1) + "0", "10" + "1" * (m - 2) + "01"})}), k
        if k >= 6:
            assert len(forms) == 2 ** (k - 2) - 6


@pytest.mark.parametrize("w, L, k_max, n_max", [
    (fibonacci_word(), 300, 20, 7),
    (substitution_word({"0": "01", "1": "10"}, "0"), 400, 14, 6),
    (explicit_word("0110100"), 7, 8, 8),
])
def test_jonsson_reads_the_factors_once(monkeypatch, w, L, k_max, n_max):
    """One desk check reads the word's factors once and tests for primality
    what _prime_age tests, and nothing more: hosts are never re-read, no
    class is canonically labelled, and no realizer is built."""
    calls = {"factor_last_starts": 0, "_prime_form": 0}

    def counted(name):
        real = getattr(ages, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    def never(*args):
        raise AssertionError("a class was canonically labelled")

    def no_realizer(*args):
        raise AssertionError("a realizer was built")

    for name in calls:
        monkeypatch.setattr(ages, name, counted(name))
    monkeypatch.setattr("wordgraphs.graphs._canonical_cached", never)
    monkeypatch.setattr(realizers.Realizer, "__post_init__", no_realizer)
    ages._prime_age(w, L, k_max)
    assert calls["factor_last_starts"] == 1
    classified = calls["_prime_form"]
    calls.update(factor_last_starts=0, _prime_form=0)
    jonsson_desk_check(w, L, k_max, n_max)
    assert calls == {"factor_last_starts": 1, "_prime_form": classified}


def test_jonsson_leaves_the_prime_memo_alone(fresh_prime_memo):
    # primality of a window is a rule on its form, so no graph reaches
    # is_prime or its memo
    jonsson_desk_check(fibonacci_word(), 300, 20, 7)
    assert primes._PRIME_MEMO == {} and primes._prime_memo_bits == 0


def test_jonsson_reports_what_its_route_holds():
    # the route reads prime members only, and the report says so
    for w in (fibonacci_word(), periodic_word("011"), periodic_word("1")):
        rep = jonsson_desk_check(w, 30, 5, n_max=3)
        assert rep.level_counts == oracles.scan_prime_age(w, 30, 5).level_counts()
        assert jonsson_to_json(rep)["prime_only"] is True


@pytest.mark.parametrize("argv", [
    ["--k-max", "2", "--n-max", "2"],
    ["--k-max", "3", "--n-max", "2"],
    ["--k-max", "3", "--n-max", "3"],
])
def test_jonsson_is_not_degenerate_below_size_four(capsys, argv):
    # no prime has order 3, so an age cut at size 2 or 3 cannot show its
    # members stopping at size 2
    assert main(["jonsson", "--fib", "--length", "10"] + argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is False and doc["note"] == ""


def test_jonsson_refuses_n_max_past_k_max():
    # m(n) is reported only for orders the age reached: at k = 4 the table
    # would give m(5) = m(6) = 3, where L = 300 and k = 20 give 10 and 14
    with pytest.raises(GraphError, match="n_max 6 exceeds k_max 4"):
        jonsson_desk_check(fibonacci_word(), 60, 4, n_max=6)
    for k_max in range(8):
        with pytest.raises(GraphError):
            jonsson_desk_check(fibonacci_word(), 30, k_max, n_max=k_max + 1)


def test_jonsson_degenerate_short_word():
    # the word graph of 001 is a three-vertex path and an isolated vertex,
    # so no member past order 2 is prime
    rep = jonsson_desk_check(explicit_word("001"), 3, 4, n_max=3)
    assert rep.degenerate
    assert rep.level_counts[3] == 0 and rep.level_counts[4] == 0
    assert "degenerate" in jonsson_to_json(rep)["note"]


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
