"""Graph kernel: constructors, canonical form, embedding search."""

import functools
import gc
import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import bit_words, graphs
from wordgraphs import ages
from wordgraphs.catalogue import FAMILIES, family_member
from wordgraphs.graph6 import from_graph6
from wordgraphs.graphs import (
    CORE_WIDTH,
    Graph,
    GraphError,
    _automorphism_generators,
    _canonical_order,
    _orbit_representatives,
    _refine,
    add_vertex,
    canonical_form,
    canonical_key,
    clique,
    complement,
    complete_bipartite,
    cycle,
    delete_vertex,
    embedding,
    embeds,
    empty_graph,
    enumerate_graphs,
    from_edges,
    induced_subgraph,
    line_graph,
    make,
    max_degree_extensions,
    path,
)
from wordgraphs.wordgraph import graph_of_word, graph_of_word_forward
from wordgraphs.words import explicit_word, fibonacci_word


def test_construction_rejects_asymmetry():
    with pytest.raises(GraphError):
        Graph(2, (2, 0))


def test_construction_rejects_loops():
    with pytest.raises(GraphError):
        Graph(1, (1,))


def test_construction_rejects_duplicate_labels():
    with pytest.raises(GraphError):
        Graph(2, (0, 0), labels=(5, 5))


def test_make_families():
    assert oracles.edge_count(path(5)) == 4
    assert oracles.edge_count(complete_bipartite(2, 3)) == 6
    assert clique(1).n == 1
    assert make("path", 5) == path(5)
    assert oracles.edge_count(make("empty", 3)) == 0
    with pytest.raises(GraphError):
        make("hypercube", 3)


def test_induced_subgraph_examples():
    p4 = path(4)
    assert induced_subgraph(p4, [0, 1]) == from_edges(2, [(0, 1)])
    assert induced_subgraph(p4, []) == empty_graph(0)
    # C_4 on {0, 2}: opposite vertices are non-adjacent
    c4 = cycle(4)
    assert induced_subgraph(c4, [0, 2]) == empty_graph(2)
    with pytest.raises(GraphError):
        induced_subgraph(p4, [0, 7])


def test_induced_subgraph_restricts_labels():
    g = Graph(3, (2, 5, 2), labels=(-1, 0, 1))
    sub = induced_subgraph(g, [0, 2])
    assert sub.labels == (-1, 1)


def test_complement_examples():
    assert complement(clique(3)) == empty_graph(3)
    assert complement(empty_graph(0)) == empty_graph(0)
    # complement of P_4 is again a path on 4 vertices
    cp4 = complement(path(4))
    assert sorted(cp4.edges()) == [(0, 2), (0, 3), (1, 3)]
    assert oracles.are_isomorphic(cp4, path(4))


@given(graphs(max_n=8))
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@given(graphs(max_n=7), graphs(max_n=0))
def test_induced_commutes_with_complement(g, _):
    subset = [v for v in range(g.n) if v % 2 == 0]
    assert complement(induced_subgraph(g, subset)) == induced_subgraph(
        complement(g), subset)


def test_line_graph_examples():
    assert oracles.are_isomorphic(line_graph(path(4)), path(3))
    assert oracles.are_isomorphic(line_graph(clique(3)), clique(3))
    assert line_graph(empty_graph(5)) == empty_graph(0)


def test_canonical_key_examples():
    assert canonical_key(path(4)) == canonical_key(complement(path(4)))
    assert canonical_key(clique(3)) != canonical_key(path(3))
    rotated = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 0), (0, 1)])
    assert canonical_key(cycle(5)) == canonical_key(rotated)


def test_canonical_key_overflow():
    with pytest.raises(GraphError):
        canonical_key(empty_graph(CORE_WIDTH + 1))


def test_canonical_key_and_form_at_core_width():
    g = graph_of_word(fibonacci_word(), CORE_WIDTH - 1)
    assert g.n == CORE_WIDTH
    assert (canonical_key(g), canonical_form(g)) == oracles.canonical_key_and_form(g)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=6), graphs(max_n=6))
def test_canonical_key_matches_permutation_brute_force(g, h):
    same_key = g.n == h.n and canonical_key(g) == canonical_key(h)
    assert same_key == oracles.brute_isomorphic(g, h)


@given(graphs(max_n=7))
def test_canonical_form_is_isomorphic_relabelling(g):
    form = canonical_form(g)
    assert form.n == g.n
    assert oracles.degree_sequence(form) == oracles.degree_sequence(g)
    assert canonical_key(form) == canonical_key(g)


def test_embeds_examples():
    assert embeds(path(3), path(4))
    assert not embeds(clique(3), cycle(5))  # C_5 is triangle-free
    assert embeds(empty_graph(0), empty_graph(0))
    assert embeds(empty_graph(0), clique(4))


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=4), graphs(max_n=7))
def test_embeds_agrees_with_subset_enumeration(h, g):
    assert embeds(h, g) == oracles.brute_embeds(h, g)


@given(graphs(max_n=7))
def test_embeds_reflexive(g):
    assert embeds(g, g)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5), graphs(max_n=6))
def test_mutual_embedding_forces_equal_keys(h, g):
    if embeds(h, g) and embeds(g, h):
        assert canonical_key(h) == canonical_key(g)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=4), graphs(max_n=5), graphs(max_n=6))
def test_embeds_transitive(a, b, c):
    if embeds(a, b) and embeds(b, c):
        assert embeds(a, c)


def test_embedding_returns_validating_witness():
    h = complete_bipartite(1, 3)
    g = complete_bipartite(2, 4)
    image = embedding(h, g)
    assert image is not None
    assert oracles.are_isomorphic(induced_subgraph(g, image), h)


# -- embedding against plain backtracking and VF2 -------------------------------


def _is_certificate(h: Graph, g: Graph, image: tuple[int, ...]) -> bool:
    """Injective, and g induced on the image, in h's vertex order, is h."""
    return (len(image) == h.n and len(set(image)) == h.n
            and all(((g.rows[v] >> w) & 1) == ((h.rows[p] >> q) & 1)
                    for p, v in enumerate(image) for q, w in enumerate(image)))


def _same_image(h: Graph, g: Graph) -> tuple[int, ...] | None:
    image = embedding(h, g)
    assert image == oracles.backtrack_embedding(h, g)
    assert image is None or _is_certificate(h, g, image)
    return image


def _induced_pattern(g: Graph, data, min_size: int = 0) -> Graph:
    """A pattern of up to 7 vertices induced by g, in a drawn vertex order."""
    picked = data.draw(st.lists(st.integers(0, g.n - 1), unique=True,
                                min_size=min_size, max_size=7))
    return _pattern_on(g, picked)


def _pattern_on(g: Graph, picked) -> Graph:
    """g induced on ``picked``, whose vertex q is vertex ``picked[q]`` of g."""
    return Graph(len(picked), tuple(
        sum(((g.rows[v] >> w) & 1) << q for q, w in enumerate(picked))
        for v in picked))


@settings(max_examples=400, deadline=None)
@given(graphs(max_n=7), graphs(max_n=12))
def test_embedding_matches_backtracking(h, g):
    _same_image(h, g)


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=1, max_n=12), st.data())
def test_embedding_matches_backtracking_on_induced_patterns(g, data):
    h = _induced_pattern(g, data)
    assert _same_image(h, g) is not None


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=7), bit_words, st.data())
def test_embedding_matches_backtracking_in_word_graphs(h, bits, data):
    g = graph_of_word(bits)
    _same_image(h, g)
    assert _same_image(_induced_pattern(g, data), g) is not None


def test_embedding_matches_backtracking_on_bound_certificates():
    w = fibonacci_word()
    certs = ages.bounds_enumerate(w, 32, 6)
    for length in (32, 64):
        host = graph_of_word(w, length)
        for cert in certs:
            assert _same_image(cert.graph, host) is None
            for v in range(cert.graph.n):
                assert _same_image(delete_vertex(cert.graph, v), host) is not None


# Patterns of 5-7 vertices in word-graph hosts of 30-70 vertices: searches with
# deep failing subtrees, where twin-heavy patterns meet the same candidate
# masks again and again under one root candidate.


@st.composite
def twin_blow_ups(draw):
    """5-7 vertices, each standing in for a vertex of a random 2-4-vertex graph;
    the vertices standing in for one form a clique or an independent set of
    twins, and the vertex order interleaves them."""
    base = draw(graphs(min_n=2, max_n=4))
    n = draw(st.integers(5, 7))
    part = draw(st.lists(st.integers(0, base.n - 1), min_size=n, max_size=n))
    clique_part = draw(st.lists(st.booleans(), min_size=base.n, max_size=base.n))
    rows = tuple(
        sum(1 << v for v in range(n)
            if v != u and (oracles.has_edge(base, part[u], part[v])
                           if part[u] != part[v] else clique_part[part[u]]))
        for u in range(n))
    return Graph(n, rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(min_n=5, max_n=7), twin_blow_ups()),
       st.text(alphabet="01", min_size=29, max_size=69), st.data())
def test_embedding_matches_backtracking_with_failed_states(h, bits, data):
    g = graph_of_word(bits)
    _same_image(h, g)
    assert _same_image(_induced_pattern(g, data, min_size=5), g) is not None


def test_embedding_matches_backtracking_on_heaviest_certificates():
    # the three bounds of Fibonacci at k = 6 whose failing searches into the
    # 65-vertex host walk the same empty subtrees most often, in three vertex
    # orders; their one-vertex deletions embed, after failing subtrees of their own
    host = graph_of_word(fibonacci_word(), 64)
    for g6 in ("E?Fg", "EFz_", "EFzg"):  # EFz_ is K3,3
        cert = from_graph6(g6)
        for order in ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0), (3, 0, 4, 1, 5, 2)):
            h = _pattern_on(cert, order)
            assert _same_image(h, host) is None
            for v in range(h.n):
                assert _same_image(delete_vertex(h, v), host) is not None


def test_embedding_matches_backtracking_where_candidate_masks_repeat():
    # under one root candidate, nodes with unmapped vertices (2, 3, 6) and
    # then (4, 5, 6) have the same candidate masks; the first subtree is
    # empty, the second holds the image (found by random search)
    h, g = from_graph6("Fj~zo"), from_graph6("PZBWCcs]jrpjnPyS{gel_x{W")
    assert _same_image(h, g) == (13, 2, 3, 10, 9, 1, 8)


@pytest.mark.parametrize("length", [60, 100])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_embedding_matches_backtracking_on_detect_members(n, length):
    # the searches of `detect`: each family member into a Fibonacci word graph
    host = graph_of_word(fibonacci_word(), length)
    for family in FAMILIES:
        for complemented in (False, True):
            _same_image(family_member(family, n, complemented), host)


def test_embedding_leaves_no_cyclic_garbage():
    # each call's search state must be freed on return, not left for the
    # cyclic collector: peak memory grew with the number of searches
    host = graph_of_word(fibonacci_word(), 32)
    gc.collect()
    gc.disable()
    try:
        for h in (path(1), path(2), path(3), path(4), cycle(5), clique(4)):
            embedding(h, host)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=7), graphs(min_n=9, max_n=14), st.data())
def test_embeds_agrees_with_vf2(h, g, data):
    nx = pytest.importorskip("networkx")
    host = nx.Graph()
    host.add_nodes_from(range(g.n))
    host.add_edges_from(g.edges())
    for pattern in (h, _induced_pattern(g, data)):
        small = nx.Graph()
        small.add_nodes_from(range(pattern.n))
        small.add_edges_from(pattern.edges())
        vf2 = nx.algorithms.isomorphism.GraphMatcher(host, small)
        image = embedding(pattern, g)
        assert (image is not None) == vf2.subgraph_is_isomorphic()
        assert image is None or _is_certificate(pattern, g, image)


def test_enumerate_graphs_counts():
    levels = enumerate_graphs(6)
    assert [len(lv) for lv in levels] == [1, 1, 2, 4, 11, 34, 156]


def test_enumerate_graphs_matches_brute_classes():
    levels = enumerate_graphs(5)
    for n in range(6):
        got = {oracles.brute_canonical(g) for g in levels[n]}
        want = {oracles.brute_canonical(g) for g in oracles.brute_iso_classes(n)}
        assert got == want


def test_enumerate_graphs_matches_all_masks_oracle():
    # one extension per orbit gives the levels of every extension, row for row
    got = enumerate_graphs(7)
    want = oracles.all_masks_levels(7)
    assert [len(level) for level in got] == [1, 1, 2, 4, 11, 34, 156, 1044]
    assert [[g.rows for g in level] for level in got] == \
        [[g.rows for g in level] for level in want]


# SHA-256 of repr([g.rows for g in level]) for each level of enumerate_graphs(8),
# recorded when every orbit representative was extended, before extensions
# were cut to those whose new vertex has maximum degree
LEVEL_ROWS_SHA256 = [
    "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
    "3639c5501f6c3f516eb14a915d6ae1583a1c70be2c1a5b8618c0ad78858d6ace",
    "b47aa914fd7f2a63688ff13c4a3513a29f7e4464081a496eb8a4257b0e6b9b32",
    "73900d55092d5017dd506b636f0627de72d75ef5ff6d734d16c3369f1776aa59",
    "9e99045f156e1ae610d76b2c45af28c3d7aee7bbcec58734cd3d12c61a22a0fe",
    "94f649f2456a2359e5b7081a11d39115f8e3d0dc95b6531695dc3326f5946464",
    "87cea4a3f27c95a0ffbe96e3bcdca0adb6a20a028b4ad349bff2f624d6746254",
    "984aa704e3eda600887d0fa3b8174ac6bde21633341a0cba80dc83584103eee7",
]


def test_enumerate_graphs_rows_pinned_through_order_eight():
    levels = enumerate_graphs(8)
    assert [len(level) for level in levels] == \
        [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
    assert [hashlib.sha256(repr([g.rows for g in level]).encode()).hexdigest()
            for level in levels] == LEVEL_ROWS_SHA256


@functools.cache
def _level_keys() -> list[set[bytes]]:
    return [{canonical_key(g) for g in level} for level in enumerate_graphs(8)]


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=8))
def test_enumerate_graphs_holds_every_graph_through_order_eight(g):
    # a class is reached only by deleting a vertex of maximum degree, so a
    # test that loses ties for the maximum shows here
    assert canonical_key(g) in _level_keys()[g.n]


# -- automorphism generators from the canonical search -------------------------


def _mask_orbits(n: int, perms) -> set[frozenset[int]]:
    """Orbits of the vertex masks of 0..n-1 under the group ``perms`` generate."""
    images = [[sum(1 << perm[v] for v in range(n) if (mask >> v) & 1)
               for mask in range(1 << n)] for perm in perms]
    orbits, placed = set(), set()
    for mask in range(1 << n):
        if mask in placed:
            continue
        orbit, stack = {mask}, [mask]
        while stack:
            x = stack.pop()
            for image in images:
                if image[x] not in orbit:
                    orbit.add(image[x])
                    stack.append(image[x])
        placed |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def _check_generators(g: Graph) -> None:
    gens = _automorphism_generators(g)
    autos = oracles.brute_automorphisms(g)
    assert set(gens) <= set(autos)
    orbits = _mask_orbits(g.n, autos)
    assert _mask_orbits(g.n, gens) == orbits
    assert _orbit_representatives(g.n, gens) == sorted(min(o) for o in orbits)


def test_automorphism_generators_on_every_class_through_order_six():
    for level in enumerate_graphs(6):
        for g in level:
            _check_generators(g)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_automorphism_generators_match_permutation_brute_force(g):
    _check_generators(g)


def test_automorphism_generators_where_leaf_codes_differ():
    # through order 7 only two classes reach leaves of more than one code;
    # there a leaf above the minimum code gives no automorphism
    def leaf_codes(g):
        leaves = []
        _canonical_order(g, leaves)
        return {code for code, _, _ in leaves}

    mixed = [g for g in enumerate_graphs(7)[7] if len(leaf_codes(g)) > 1]
    assert len(mixed) == 2
    for g in mixed:
        _check_generators(g)


@pytest.mark.parametrize("g", [empty_graph(5), clique(5), complete_bipartite(2, 3)],
                         ids=["edgeless", "clique", "K_2,3"])
def test_twin_transpositions_alone_generate(g):
    # the refinement reaches a leaf of twin cells at once: one leaf, no
    # leaf permutation, and the transpositions must give the whole group
    assert all(sum(a != b for a, b in enumerate(perm)) == 2
               for perm in _automorphism_generators(g))
    _check_generators(g)


def _new_vertex_has_max_degree(ext: Graph) -> bool:
    return ext.degree(ext.n - 1) == max(ext.degree(v) for v in range(ext.n))


def test_max_degree_extensions_on_every_class_through_order_six():
    for level in enumerate_graphs(6):
        for g in level:
            yielded = list(max_degree_extensions(g))
            assert all(_new_vertex_has_max_degree(ext) for ext in yielded)
            keys = {canonical_key(ext) for ext in yielded}
            for nbrs in range(1 << g.n):
                ext = add_vertex(g, nbrs)
                if _new_vertex_has_max_degree(ext):
                    assert canonical_key(ext) in keys, (g, nbrs)


# -- refinement against the rescanning oracle --------------------------------

word_graph_bits = st.text(alphabet="01", max_size=63)


def _cell_masks(cells: list[list[int]]) -> list[int]:
    return [sum(1 << v for v in cell) for cell in cells]


def _check_refinement(rows: tuple[int, ...]) -> None:
    """Equal ordered partitions from the unit partition, then for every
    vertex individualized in its cell; the children all start from the one
    set of masks settled at the parent, as search nodes do, and every cell
    comes back with its own vertex mask."""
    unit = [list(range(len(rows)))]
    cells, masks, settled = _refine(rows, [list(c) for c in unit], _cell_masks(unit), set())
    assert cells == oracles.rescan_refine(rows, unit)
    assert masks == _cell_masks(cells)
    for t, cell in enumerate(cells):
        if len(cell) < 2:
            continue
        for v in cell:
            child = cells[:t] + [[v], [w for w in cell if w != v]] + cells[t + 1:]
            expected = oracles.rescan_refine(rows, child)
            got, got_masks, _ = _refine(rows, [list(c) for c in child],
                                        _cell_masks(child), settled)
            assert got == expected
            assert got_masks == _cell_masks(got)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12))
def test_refine_matches_rescanning_oracle(g):
    _check_refinement(g.rows)


@settings(max_examples=60, deadline=None)
@given(word_graph_bits)
def test_refine_matches_rescanning_oracle_on_word_graphs(bits):
    _check_refinement(graph_of_word(bits).rows)


# -- canonical search against the plain search ---------------------------------


def _check_canonical_search(g: Graph) -> None:
    """Equal best (order, code) and equal leaves, in walk order, from the
    kernel and from the rescanning, pair-by-pair search."""
    leaves: list = []
    expected_leaves: list = []
    assert _canonical_order(g, leaves) == oracles.canonical_order(g, expected_leaves)
    assert leaves == expected_leaves


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=12))
def test_canonical_search_matches_plain_search(g):
    _check_canonical_search(g)


@settings(max_examples=40, deadline=None)
@given(word_graph_bits)
def test_canonical_search_matches_plain_search_on_word_graphs(bits):
    _check_canonical_search(graph_of_word(bits))
    _check_canonical_search(graph_of_word_forward(bits))


def test_canonical_search_matches_plain_search_on_every_class_through_order_seven():
    for level in enumerate_graphs(7):
        for g in level:
            _check_canonical_search(g)


# -- graphs the kernel builds without the constructor's checks -----------------


def _passes_public_constructor(g: Graph) -> bool:
    return Graph(g.n, g.rows, g.labels) == g


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8), st.data())
def test_unchecked_builders_make_valid_graphs(g, data):
    nbrs = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    keep = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    for built in (add_vertex(g, nbrs), induced_subgraph(g, keep), complement(g),
                  canonical_form(g)):
        assert _passes_public_constructor(built)


@settings(max_examples=60, deadline=None)
@given(word_graph_bits)
def test_unchecked_word_graphs_and_patterns_are_valid(bits):
    g = graph_of_word(bits)
    assert _passes_public_constructor(g)
    assert _passes_public_constructor(graph_of_word_forward(bits))
    labelled = induced_subgraph(g, range(0, g.n, 2))
    assert _passes_public_constructor(labelled)
    assert _passes_public_constructor(complement(labelled))
    # every pattern graph of the word's age, through the validating constructor
    with mock.patch.object(ages, "_trusted", Graph):
        ages.word_age(explicit_word(bits), len(bits), min(5, len(bits) + 1))
