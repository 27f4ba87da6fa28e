"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates: permutations for isomorphism, subsets for
modules, embeddings and ages.  The plain versions of the kernels that run
on bitmasks are kept here too: the lexicographic pair-closure scan, the
refinement that rescans every splitter after each split, the canonical
search on it that encodes each leaf pair by pair, the pair-by-pair word
graph, the label-pair realizer check, the strict order of a realizer's two
linear orders built pair by pair, and the plain embedding backtracking.
The module oracle by subset enumeration is the one ``verify`` runs, imported
from there.  Nothing imports the algorithms under test beyond the plain
Graph container, save six slow routes: the census's generation that
tries every neighbourhood mask and heights over every subset, the bound
candidates that extend every word-age member by every mask, the cofinality
table that rescans every pair for each m, the one-pass table that walks
every member, and the word age with one state per gapped-factor pattern.
They differ from the fast routes only in what they try, and reuse the
canonical key, form, primality test, embedding search, word age and move
rule, which are checked against brute force or the extension route on their
own.  ``are_isomorphic`` compares canonical keys, for tests that only need
a yes or no.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from wordgraphs.ages import BoundCertificate, _moves, word_age
from wordgraphs.graphs import (
    Graph,
    GraphError,
    add_vertex,
    canonical_form,
    canonical_key,
    delete_vertex,
    embeds,
    induced_subgraph,
)
from wordgraphs.primes import is_prime
from wordgraphs.verify import modules_by_subsets as brute_modules
from wordgraphs.wordgraph import graph_of_word, letter_masks
from wordgraphs.words import Word


def has_edge(g: Graph, i: int, j: int) -> bool:
    return bool((g.rows[i] >> j) & 1)


def edge_count(g: Graph) -> int:
    return sum(r.bit_count() for r in g.rows) // 2


def degree_sequence(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(r.bit_count() for r in g.rows))


def index_of_label(g: Graph, label: int) -> int:
    return g.labels.index(label) if g.labels is not None else label


def relabel(g: Graph, perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Edge set of g with vertex i renamed perm[i], as a sorted pair tuple."""
    out = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if has_edge(g, i, j):
                a, b = perm[i], perm[j]
                out.append((min(a, b), max(a, b)))
    return tuple(sorted(out))


def brute_canonical(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Minimum relabelled edge set over all n! permutations."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        cand = relabel(g, perm)
        if best is None or cand < best:
            best = cand
    return (g.n, best if best is not None else ())


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and brute_canonical(g) == brute_canonical(h)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_key(g) == canonical_key(h)


def brute_embeds(h: Graph, g: Graph) -> bool:
    """Exhaustive subset enumeration; intended for |g| <= 8."""
    if h.n > g.n:
        return False
    hcanon = brute_canonical(h)
    for subset in itertools.combinations(range(g.n), h.n):
        if brute_canonical(induced_subgraph(g, subset)) == hcanon:
            return True
    return False


def brute_is_prime(g: Graph) -> bool:
    """Order <= 2 counts as prime by the census convention."""
    if g.n <= 2:
        return True
    return not brute_modules(g)


def brute_iso_classes(n: int) -> list[Graph]:
    """All isomorphism classes on n vertices via labelled enumeration (n <= 6)."""
    seen = {}
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (mask >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        g = Graph(n, tuple(rows))
        seen.setdefault(brute_canonical(g), g)
    return list(seen.values())


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every permutation ``perm`` (vertex v to perm[v]) preserving adjacency."""
    found = []
    for perm in itertools.permutations(range(g.n)):
        if all(sum(1 << perm[w] for w in range(g.n) if (g.rows[v] >> w) & 1)
               == g.rows[perm[v]] for v in range(g.n)):
            found.append(perm)
    return found


def all_masks_levels(n_max: int) -> list[list[Graph]]:
    """Classes per order 0..n_max, each level-k class extended by all 2^k
    neighbourhood masks, deduplicated by canonical key, sorted by key."""
    levels = [[Graph(0, ())]]
    for k in range(n_max):
        seen: dict[bytes, Graph] = {}
        for g in levels[k]:
            for nbrs in range(1 << k):
                ext = add_vertex(g, nbrs)
                key = canonical_key(ext)
                if key not in seen:
                    seen[key] = canonical_form(ext)
        levels.append([seen[key] for key in sorted(seen)])
    return levels


def all_masks_bounds(w: Word, L: int, k_max: int) -> list[BoundCertificate]:
    """Bound certificates of the word age at prefix L, each level-(k-1)
    member extended by all 2^(k-1) neighbourhood masks, every deletion key
    computed, sorted by (order, key)."""
    age = word_age(w, L, k_max)
    certificates = []
    seen: set[bytes] = set()
    for k in range(1, k_max + 1):
        for member in age.levels[k - 1].values():
            for nbrs in range(1 << (k - 1)):
                cand = add_vertex(member, nbrs)
                key = canonical_key(cand)
                if key in seen:
                    continue
                seen.add(key)
                if key in age.levels[k]:
                    continue
                del_keys = [canonical_key(delete_vertex(cand, v))
                            for v in range(cand.n)]
                if all(dk in age.levels[k - 1] for dk in del_keys):
                    certificates.append(BoundCertificate(
                        graph=canonical_form(cand), key=key,
                        deletion_keys=tuple(sorted(del_keys)),
                        non_membership_scale=L))
    certificates.sort(key=lambda c: (c.graph.n, c.key))
    return certificates


def rows_keyed_word_age(w: Word, L: int, k_max: int) -> dict[int, dict[bytes, Graph]]:
    """The levels of ``word_age``, with one state per gapped-factor pattern:
    its rows in index order map to its end mask, grown by the same move
    rule, and each pattern's class is labelled on its own."""
    pos = letter_masks(w, L)
    empty = Graph(0, ())
    levels = {0: {canonical_key(empty): empty}}
    states = {(0,): (1 << graph_of_word(w, L).n) - 1}
    for k in range(1, k_max + 1):
        if k > 1:
            nxt: dict[tuple[int, ...], int] = {}
            for rows, ends in states.items():
                for base, flip, reach in _moves(ends, pos):
                    nbrs = (base & ((1 << (k - 1)) - 1)) ^ (flip << (k - 2))
                    grown = tuple(r | (((nbrs >> i) & 1) << (k - 1))
                                  for i, r in enumerate(rows)) + (nbrs,)
                    nxt[grown] = nxt.get(grown, 0) | reach
            states = nxt
        forms = {canonical_key(Graph(k, rows)): canonical_form(Graph(k, rows))
                 for rows in states}
        levels[k] = {key: forms[key] for key in sorted(forms)}
    return levels


_EXHAUSTIVE_HEIGHTS: dict[bytes, int] = {}


def exhaustive_prime_height(g: Graph) -> int:
    """Prime height by recursion over every proper subset, memoised by key."""
    key = canonical_key(g)
    if key not in _EXHAUSTIVE_HEIGHTS:
        best = -1
        for mask in range((1 << g.n) - 1):
            sub = induced_subgraph(g, [v for v in range(g.n) if (mask >> v) & 1])
            if is_prime(sub):
                best = max(best, exhaustive_prime_height(sub))
        _EXHAUSTIVE_HEIGHTS[key] = best + 1
    return _EXHAUSTIVE_HEIGHTS[key]


def brute_age(source: Graph, k_max: int) -> dict[int, set]:
    """Isomorphism classes of induced subgraphs by size (about C(n, k) * k! steps)."""
    levels: dict[int, set] = {k: set() for k in range(k_max + 1)}
    for size in range(k_max + 1):
        for subset in itertools.combinations(range(source.n), size):
            levels[size].add(brute_canonical(induced_subgraph(source, subset)))
    return levels


def rescan_cofinality(members: dict[int, list[Graph]], k_max: int,
                      n: int) -> int | None:
    """m(n) by its definition: the least m in 0..k_max such that every member
    of size at most n embeds in every member of size at least m, rescanning
    every pair for each m; None if no m works."""
    small = [s for size in range(n + 1) for s in members.get(size, [])]
    for m in range(k_max + 1):
        if all(embeds(s, h) for size in range(m, k_max + 1)
               for h in members.get(size, []) for s in small):
            return m
    return None


def walk_cofinality(members: dict[int, list[Graph]], k_max: int, n_max: int
                    ) -> tuple[dict[int, int | None], dict[int, tuple[Graph, Graph]]]:
    """The desk check's one-pass table with every member walking the hosts,
    the empty graph and single vertices included: m(0..n_max) and the
    witness pair behind each None."""
    hosts = [h for size in sorted(members, reverse=True) for h in members[size]]
    cofinality: dict[int, int | None] = {}
    failures: dict[int, tuple[Graph, Graph]] = {}
    worst, witness = 0, None
    for n in range(n_max + 1):
        for s in members.get(n, []):
            for h in hosts:
                if h.n < worst:
                    break
                if not embeds(s, h):
                    worst = h.n + 1
                    if worst > k_max:
                        witness = (s, h)
                    break
        cofinality[n] = worst if worst <= k_max else None
        if witness is not None:
            failures[n] = witness
    return cofinality, failures


def pair_closure(g: Graph, u: int, v: int) -> int:
    """Smallest module containing {u, v}, as a bitmask, by round-robin growth.

    Each round adds every outside vertex that sees some but not all of the
    mask, until a round adds none or the mask is all of V.
    """
    full = (1 << g.n) - 1
    mask = (1 << u) | (1 << v)
    grown = True
    while grown and mask != full:
        grown = False
        for x in range(g.n):
            if not (mask >> x) & 1 and (g.rows[x] & mask) not in (0, mask):
                mask |= 1 << x
                grown = True
    return mask


def pair_scan_module(g: Graph) -> int | None:
    """First proper pair closure in lexicographic pair order, as a bitmask.

    A nontrivial module contains the closure of any pair inside it, so
    scanning all pairs is complete.
    """
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            mask = pair_closure(g, u, v)
            if mask != full:
                return mask
    return None


def rescan_refine(rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement that scans every splitter again after each split."""
    cells = [list(cell) for cell in cells]
    while True:
        for splitter in cells:
            smask = sum(1 << v for v in splitter)
            for di, cell in enumerate(cells):
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((rows[v] & smask).bit_count(), []).append(v)
                if len(groups) > 1:
                    cells[di:di + 1] = [groups[c] for c in sorted(groups)]
                    break
            else:
                continue
            break
        else:
            return cells


def _is_twin_cell(rows: tuple[int, ...], cell: list[int]) -> bool:
    """Identical rows outside the cell, and the cell complete or empty."""
    cmask = sum(1 << v for v in cell)
    outside = rows[cell[0]] & ~cmask
    if any(rows[v] & ~cmask != outside for v in cell):
        return False
    inner = [rows[v] & cmask for v in cell]
    return all(x == 0 for x in inner) or all(
        x == cmask ^ (1 << v) for x, v in zip(inner, cell))


def encode_pairs(rows: tuple[int, ...], order: list[int]) -> int:
    """The upper triangle of the adjacency matrix in ``order``, pair by pair."""
    code = 0
    for i, v in enumerate(order):
        for w in order[i + 1:]:
            code = (code << 1) | ((rows[v] >> w) & 1)
    return code


def canonical_order(g: Graph, leaves: list | None = None) -> tuple[list[int], int]:
    """The canonical search with the rescanning refinement, each cell's mask
    rebuilt from its list and each leaf encoded pair by pair: the first leaf
    order of minimum code and that code; ``leaves``, if given, receives
    ``(code, order, cells)`` for every leaf in walk order."""
    rows = g.rows
    if g.n <= 1:
        return list(range(g.n)), 0
    best: list = []

    def walk(cells: list[list[int]]) -> None:
        cells = rescan_refine(rows, cells)
        target = next((ci for ci, cell in enumerate(cells)
                       if len(cell) > 1 and not _is_twin_cell(rows, cell)), None)
        if target is None:
            order = [v for cell in cells for v in sorted(cell)]
            code = encode_pairs(rows, order)
            if leaves is not None:
                leaves.append((code, order, cells))
            if not best or code < best[1]:
                best[:] = [order, code]
            return
        cell = cells[target]
        for v in sorted(cell):
            walk(cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1:])

    walk([list(range(g.n))])
    return best[0], best[1]


def canonical_key_and_form(g: Graph) -> tuple[bytes, Graph]:
    """Key (order byte, then the code's bytes) and relabelled graph of
    :func:`canonical_order`."""
    order, code = canonical_order(g)
    key = bytes([g.n]) + code.to_bytes((g.n * (g.n - 1) // 2 + 7) // 8, "big")
    pos = {v: i for i, v in enumerate(order)}
    rows = [sum(1 << pos[w] for w in range(g.n) if has_edge(g, v, w)) for v in order]
    return key, Graph(g.n, tuple(rows))


def word_graph_rows(bits: str, forward: bool = False) -> tuple[int, ...]:
    """Word-graph rows pair by pair: edge iff the deciding letter is 1 and
    the indices are consecutive, or it is 0 and they are not.

    Backward: the letter at label j - 1 sits at index j and decides every
    pair whose larger index is j.  Forward: the letter at index i decides
    every pair whose smaller index is i.
    """
    n = len(bits) + 1
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            letter = bits[i] if forward else bits[j - 1]
            if (letter == "1") == (j == i + 1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def realizer_realizes(first: tuple[int, ...], second: tuple[int, ...],
                      g: Graph) -> bool:
    """Label pairs comparable in both orders, against the labelled edges of g."""
    pos1 = {v: k for k, v in enumerate(first)}
    pos2 = {v: k for k, v in enumerate(second)}
    comparable = {tuple(sorted((x, y))) for x, y in itertools.combinations(first, 2)
                  if (pos1[x] < pos1[y]) == (pos2[x] < pos2[y])}
    edges = {tuple(sorted((g.label_of(i), g.label_of(j)))) for i, j in g.edges()}
    return comparable == edges


@dataclass(frozen=True)
class Poset:
    """Strict partial order; ``above[i]`` masks the elements above element i.

    The constructor visits the order's pairs one by one and raises on a
    reflexive pair, a 2-cycle or a broken transitivity.
    """

    elements: tuple[int, ...]
    above: tuple[int, ...]

    def __post_init__(self) -> None:
        above = self.above
        for i, row in enumerate(above):
            if (row >> i) & 1:
                raise GraphError("strict order cannot be reflexive")
            rest = row
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if (above[j] >> i) & 1:
                    raise GraphError("strict order cannot contain a 2-cycle")
                if above[j] & ~row:
                    raise GraphError("order relation is not transitive")

    def less(self, a: int, b: int) -> bool:
        i, j = self.elements.index(a), self.elements.index(b)
        return bool((self.above[i] >> j) & 1)


def intersection_order(first: tuple[int, ...], second: tuple[int, ...]) -> Poset:
    """x < y iff x precedes y in both orders, decided pair by pair."""
    elements = tuple(sorted(first))
    pos1 = {v: k for k, v in enumerate(first)}
    pos2 = {v: k for k, v in enumerate(second)}
    return Poset(elements, tuple(
        sum(1 << j for j, y in enumerate(elements)
            if pos1[x] < pos1[y] and pos2[x] < pos2[y])
        for x in elements))


def backtrack_embedding(h: Graph, g: Graph) -> tuple[int, ...] | None:
    """Induced embedding by plain backtracking, one level per pattern vertex.

    The degree prefilter, the pick rule (fewest unused candidates, lowest
    pattern vertex on ties) and the ascending candidate order are those of
    ``graphs.embedding``, so the first image found is the same.
    """
    nh, ng = h.n, g.n
    if nh == 0:
        return ()
    if nh > ng:
        return None
    full = (1 << ng) - 1
    hdeg = [h.degree(i) for i in range(nh)]
    gdeg = [g.degree(i) for i in range(ng)]
    base = []
    for p in range(nh):
        mask = 0
        for v in range(ng):
            if gdeg[v] >= hdeg[p] and (ng - 1 - gdeg[v]) >= (nh - 1 - hdeg[p]):
                mask |= 1 << v
        if not mask:
            return None
        base.append(mask)

    image = [-1] * nh

    def solve(done: int, used: int, cands: list[int]) -> bool:
        if done == nh:
            return True
        pick, pick_count = -1, ng + 1
        for p in range(nh):
            if image[p] < 0:
                count = (cands[p] & ~used).bit_count()
                if count == 0:
                    return False
                if count < pick_count:
                    pick, pick_count = p, count
        p = pick
        free = cands[p] & ~used
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            grows_v = g.rows[v]
            feasible = True
            nxt = cands[:]
            for q in range(nh):
                if q == p or image[q] >= 0:
                    continue
                narrowed = cands[q] & (grows_v if has_edge(h, p, q)
                                       else full ^ grows_v)
                nxt[q] = narrowed
                if not narrowed & ~(used | (1 << v)):
                    feasible = False
                    break
            if feasible:
                image[p] = v
                if solve(done + 1, used | (1 << v), nxt):
                    return True
                image[p] = -1
        return False

    if not solve(0, 0, base):
        return None
    return tuple(image)
