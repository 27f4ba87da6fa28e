"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates: permutations for isomorphism, subsets for
modules, embeddings and ages.  The plain versions of the kernels that run
on bitmasks are kept here too: the pair-by-pair relabelling, the
lexicographic pair-closure scan, the refinement that rescans every splitter
after each split, the canonical search on it that encodes each leaf pair by
pair, the pair-by-pair word graph, the realizer builder that normalizes its
two lists with polarity and swap flags, the label-pair realizer check, the
strict order of a realizer's two linear orders built pair by pair, the
plain embedding backtracking, the factor set sliced at every start, the
mechanical letters from ``Fraction`` floors, and the orbit representatives
over all 2^n masks, from one image table per generator the caller passes
in, cut to the masks that give a new vertex maximum degree.  The module
oracle by subset enumeration and ``in_word_age``, which reads the full
vertex set of one graph off ``ages.subsets_in_word_age``, are the ones
``verify`` runs, imported from there.  Nothing imports the algorithms
under test beyond the plain Graph, Realizer and AgeApprox containers,
save six slow routes: the census's generation that tries every
neighbourhood mask and heights over every subset, the bound candidates
that extend every word-age member by every mask, the cofinality table
that rescans every pair for each m by embedding search, the word age with
one state per gapped-factor pattern, and the prime windows found by a
scan over every position of a word at every level.
They differ from the fast routes only in what they try, and reuse the
canonical key, form, primality test, embedding search, word age and move
rule, which are checked against brute force or the extension route on their
own.  ``are_isomorphic`` compares canonical keys, for tests that only need
a yes or no, and ``prime_members`` cuts an age to its brute-force primes:
the desk check's oracle is ``rescan_cofinality`` over
``prime_members(word_age(...))``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction

from wordgraphs.ages import AgeApprox, BoundCertificate, _moves, word_age
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
from wordgraphs.realizers import Realizer
from wordgraphs.verify import in_word_age, modules_by_subsets as brute_modules
from wordgraphs.wordgraph import graph_of_word, letter_masks
from wordgraphs.words import Word


def has_edge(g: Graph, i: int, j: int) -> bool:
    return bool((g.rows[i] >> j) & 1)


def reorder_pairs(g: Graph, order: list[int]) -> tuple[int, ...]:
    """Rows of the subgraph on the distinct vertices ``order``, with
    ``order[i]`` as vertex i, read pair by pair."""
    return tuple(sum(1 << j for j, w in enumerate(order) if has_edge(g, v, w))
                 for v in order)


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
    return next(brute_modules(g), None) is None


def prime_members(age: AgeApprox) -> AgeApprox:
    """``age`` with only the members :func:`brute_is_prime` accepts: of a
    word age, the prime levels built with no window, normal form or
    realizer key, the desk check's oracle."""
    return replace(age, levels={
        size: {key: g for key, g in level.items() if brute_is_prime(g)}
        for size, level in age.levels.items()})


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


def all_masks_orbit_representatives(n: int, gens: list[tuple[int, ...]]) -> list[int]:
    """The smallest vertex mask of each orbit of the group that ``gens``
    generate on all 2^n subsets of ``0..n-1``, ascending, from one image
    table per generator over every mask."""
    size = 1 << n
    images = []
    for perm in gens:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | (1 << perm[low.bit_length() - 1])
        images.append(image)
    seen = bytearray(size)
    reps = []
    for mask in range(size):
        if seen[mask]:
            continue
        reps.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for image in images:
                y = image[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return reps


def new_vertex_has_max_degree(ext: Graph) -> bool:
    """The last vertex of ``ext`` has its maximum degree."""
    return ext.degree(ext.n - 1) == max(ext.degree(v) for v in range(ext.n))


def max_degree_masks(g: Graph, gens: list[tuple[int, ...]]) -> list[int]:
    """The orbit representatives over all masks (from ``gens``, g's
    automorphism generators) whose extension gives the new vertex maximum
    degree, in ascending order."""
    return [nbrs for nbrs in all_masks_orbit_representatives(g.n, gens)
            if new_vertex_has_max_degree(add_vertex(g, nbrs))]


def all_masks_step(level) -> dict[bytes, Graph]:
    """Every class of one more vertex over ``level``: each graph extended by
    all 2^n neighbourhood masks, deduplicated by canonical key, as canonical
    forms sorted by key."""
    seen: dict[bytes, Graph] = {}
    for g in level:
        for nbrs in range(1 << g.n):
            ext = add_vertex(g, nbrs)
            key = canonical_key(ext)
            if key not in seen:
                seen[key] = canonical_form(ext)
    return {key: seen[key] for key in sorted(seen)}


def all_masks_levels(n_max: int) -> list[list[Graph]]:
    """Classes per order 0..n_max, each level the :func:`all_masks_step` of
    the one before."""
    levels = [[Graph(0, ())]]
    for _ in range(n_max):
        levels.append(list(all_masks_step(levels[-1]).values()))
    return levels


def all_masks_bounds(w: Word, L: int, k_max: int) -> list[BoundCertificate]:
    """Bound certificates of the word age at prefix L: the non-members in
    the :func:`all_masks_step` of each level, every deletion key computed,
    sorted by (order, key)."""
    age = word_age(w, L, k_max)
    certificates = []
    for k in range(1, k_max + 1):
        for key, cand in all_masks_step(age.levels[k - 1].values()).items():
            if key in age.levels[k]:
                continue
            del_keys = [canonical_key(delete_vertex(cand, v))
                        for v in range(cand.n)]
            if all(dk in age.levels[k - 1] for dk in del_keys):
                certificates.append(BoundCertificate(
                    graph=cand, key=key, deletion_keys=tuple(sorted(del_keys)),
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


def factor_set(p: str, n: int) -> set[str]:
    """The distinct length-n blocks of ``p``, sliced at every start."""
    return {p[i:i + n] for i in range(len(p) - n + 1)}


def scan_prime_age(w: Word, L: int, k_max: int) -> AgeApprox:
    """The prime members of ``ages.word_age``, canonically keyed, with each
    level's windows found by a scan over every position of the prefix,
    deduped by (gap shape, factor) and sliced out of the prefix graph by
    index sets: the oracle of ``ages._prime_age``, with no factor masks,
    no normal forms, no word graphs of factors and no realizer keys."""
    source = graph_of_word(w, L)
    bits = w.prefix(L)  # the letter at index t is bits[t - 1]
    levels = {0: {canonical_key(Graph(0, ())): Graph(0, ())}}
    for k in range(1, k_max + 1):
        # (gap shape, factor) -> the first index of its interval
        windows: dict[tuple[bool, str], int] = {}
        for a in range(L - k + 2):  # the interval a..a+k-1
            windows.setdefault((False, bits[a:a + k - 1]), a)
        for b in range(2, L - k + 3):  # index 0, a gap, the interval b..b+k-2
            windows.setdefault((True, bits[b - 1:b + k - 2]), b)
        primes = [g for g in (
            induced_subgraph(source, [0, *range(start, start + k - 1)] if gap
                             else range(start, start + k))
            for (gap, _), start in windows.items()) if is_prime(g)]
        forms = {canonical_key(g): canonical_form(g) for g in primes}
        levels[k] = dict(sorted(forms.items()))
    return AgeApprox(source_desc=json.dumps({"word_prefix": L}), k_max=k_max,
                     levels=levels)


def join_substitution_prefix(rules: dict[str, str], seed: str, n: int) -> str:
    """The length-n prefix of the fixed point, each iterate joined from the
    images of the previous one's letters, one letter at a time."""
    word = seed
    while len(word) < n:
        word = "".join(rules[c] for c in word)
    return word[:n]


def fraction_mechanical_prefix(slope: Fraction, intercept: Fraction, n: int) -> str:
    """Letters ``floor((k+1)s + r) - floor(ks + r)``, k < n, in Fractions."""
    floors = [(k * slope + intercept).__floor__() for k in range(n + 1)]
    return "".join(str(floors[k + 1] - floors[k]) for k in range(n))


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


def first_closure_through_0(g: Graph) -> int | None:
    """First proper closure of {0, x} over x = 1..n-1, as a bitmask, or None."""
    full = (1 << g.n) - 1
    for x in range(1, g.n):
        mask = pair_closure(g, 0, x)
        if mask != full:
            return mask
    return None


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


class _Builder:
    """Reference realizer builder: a pair of physical lists plus polarity and
    swap flags.

    Logical first order = (reverse of)? (physical A or B).  Each step first
    normalizes so the previous vertex sits at the top of the first order,
    then inserts the new vertex just below that top in the first order and
    at the bottom (letter 1) or the top (letter 0) of the second order.
    ``extremal`` records where the newest vertex currently sits, in logical
    coordinates: (order index 0/1, "top" | "bottom").  Every step checks
    that invariant on copies of both orders.
    """

    def __init__(self) -> None:
        self.a: list[int] = [-1]
        self.b: list[int] = [-1]
        self.flipped = False
        self.swapped = False
        self.extremal = (0, "top")

    def _physical(self, which: int) -> list[int]:
        use_b = (which == 0) == self.swapped
        return self.b if use_b else self.a

    def _normalize_previous_to_top_of_first(self) -> None:
        side, where = self.extremal
        if where == "bottom":
            self.flipped = not self.flipped
        if side == 1:
            self.swapped = not self.swapped
        self.extremal = (0, "top")

    def insert_step(self, vertex: int, bit: str) -> None:
        self._normalize_previous_to_top_of_first()
        first = self._physical(0)
        second = self._physical(1)
        if not self.flipped:
            first.insert(len(first) - 1, vertex)  # just below the top
        else:
            first.insert(1, vertex)
        if bit == "1":
            # unique edge to the previous vertex: new vertex goes below
            # everything in the second order
            if not self.flipped:
                second.insert(0, vertex)
            else:
                second.append(vertex)
            self.extremal = (1, "bottom")
        else:
            # unique non-edge to the previous vertex: new vertex tops the
            # second order, staying incomparable to the old top of the first
            if not self.flipped:
                second.append(vertex)
            else:
                second.insert(0, vertex)
            self.extremal = (1, "top")
        assert self._newest_is_extremal(vertex), "extremality invariant broken"

    def _logical(self, which: int) -> list[int]:
        seq = self._physical(which)
        return seq[::-1] if self.flipped else seq[:]

    def _newest_is_extremal(self, vertex: int) -> bool:
        return any(self._logical(k)[p] == vertex
                   for k in (0, 1) for p in (0, -1))


def reference_realizer(word: str) -> Realizer:
    """``realizers.build_realizer`` by the flag-and-normalize state machine."""
    builder = _Builder()
    for j, bit in enumerate(word):
        builder.insert_step(j, bit)
    return Realizer(tuple(builder._logical(0)), tuple(builder._logical(1)))


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
