"""Finite simple graphs on bit-row adjacency.

A graph stores one integer bitmask per vertex (``rows[i]`` bit ``j`` set iff
``{i, j}`` is an edge), which keeps set operations word-parallel.  Vertices
are always indexed ``0..n-1`` internally; an optional injective ``labels``
map carries external namings such as the ``-1..L-1`` vertex names of word
graphs.  All values are immutable and safe to share across threads.

The canonical-form kernel (exact, refinement plus individualization
backtracking) is capped at :data:`CORE_WIDTH` vertices; every structural
operation accepts arbitrary order since Python integers are unbounded.

The induced-embedding search (:func:`embedding`) keeps one candidate mask
per unmapped pattern vertex, with the used host vertices removed, and is one
plain recursive node per placed vertex.  It visits the nodes of plain
backtracking in the same order, so its images are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

CORE_WIDTH = 64

CanonKey = bytes


class GraphError(ValueError):
    """Malformed construction, out-of-range vertex set, or size overflow."""


@dataclass(frozen=True)
class Graph:
    """Undirected loop-free graph with adjacency bit rows.

    Invariants checked on construction: symmetry, irreflexivity, and (when
    present) that ``labels`` is injective and covers all ``n`` vertices.
    Graphs the kernel derives from valid graphs come from :func:`_trusted`,
    which skips these checks.
    """

    n: int
    rows: tuple[int, ...]
    labels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.rows) != self.n:
            raise GraphError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise GraphError(f"row {i} has bits outside 0..{self.n - 1}")
            if (row >> i) & 1:
                raise GraphError(f"loop at vertex {i}")
        for i in range(self.n):
            ri = self.rows[i]
            for j in range(i + 1, self.n):
                if ((ri >> j) & 1) != ((self.rows[j] >> i) & 1):
                    raise GraphError(f"adjacency not symmetric at ({i}, {j})")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise GraphError("labels must cover exactly the vertex set")
            if len(set(self.labels)) != self.n:
                raise GraphError("labels must be pairwise distinct")

    # -- basic accessors -------------------------------------------------

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            for j in _bits(row >> (i + 1) << (i + 1)):
                yield (i, j)

    def label_of(self, i: int) -> int:
        return self.labels[i] if self.labels is not None else i


def _trusted(n: int, rows: tuple[int, ...],
             labels: tuple[int, ...] | None = None) -> Graph:
    """A graph the kernel built itself, symmetric and loop-free by
    construction, so the checks of the public constructor are skipped."""
    g = object.__new__(Graph)
    # attribute by attribute, as the dataclass __init__ does, so the instance
    # keeps its compact attribute storage
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    object.__setattr__(g, "labels", labels)
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]],
               labels: tuple[int, ...] | None = None) -> Graph:
    rows = [0] * n
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"bad edge ({i}, {j}) for order {n}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows), labels)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- elementary operations ----------------------------------------------


def _reorder(g: Graph, order: Sequence[int]) -> tuple[int, ...]:
    """Rows of the subgraph of ``g`` on the distinct vertices ``order``, with
    ``order[i]`` as vertex i: each row's bits in the kept set, mapped."""
    place = [0] * g.n  # place[v]: the bit of kept vertex v in the new rows
    kept = 0
    for i, v in enumerate(order):
        place[v] = 1 << i
        kept |= 1 << v
    rows = []
    for v in order:
        acc = 0
        nbrs = g.rows[v] & kept
        while nbrs:
            low = nbrs & -nbrs
            acc |= place[low.bit_length() - 1]
            nbrs ^= low
        rows.append(acc)
    return tuple(rows)


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced on vertex indices ``s``, kept in ascending order."""
    kept = sorted(set(s))
    for v in kept:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex index {v} out of range for order {g.n}")
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[v] for v in kept)
    return _trusted(len(kept), _reorder(g, kept), labels)


def delete_vertex(g: Graph, v: int) -> Graph:
    return induced_subgraph(g, [u for u in range(g.n) if u != v])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full ^ r ^ (1 << i)) for i, r in enumerate(g.rows))
    return _trusted(g.n, rows, g.labels)


def add_vertex(g: Graph, neighbors: int) -> Graph:
    """Extend by one vertex adjacent to the index set in mask ``neighbors``."""
    if neighbors >> g.n:
        raise GraphError("neighborhood mask exceeds vertex set")
    rows = [r | (((neighbors >> i) & 1) << g.n) for i, r in enumerate(g.rows)]
    rows.append(neighbors)
    return _trusted(g.n + 1, tuple(rows))


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of ``g``; adjacency iff edges share an endpoint."""
    edge_list = list(g.edges())
    m = len(edge_list)
    rows = [0] * m
    for a in range(m):
        ia, ja = edge_list[a]
        for b in range(a + 1, m):
            ib, jb = edge_list[b]
            if ia in (ib, jb) or ja in (ib, jb):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return Graph(m, tuple(rows))


# -- standard families ----------------------------------------------------


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise GraphError("order must be nonnegative")
    return Graph(n, (0,) * n)


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)]) if n else empty_graph(0)


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


_FAMILIES = {
    "path": path,
    "cycle": cycle,
    "clique": clique,
    "complete_bipartite": complete_bipartite,
    "empty": empty_graph,
}


def make(family: str, *params: int) -> Graph:
    """Deterministic standard constructions, e.g. ``make("path", 5)``."""
    if family not in _FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    if any(p < 0 for p in params):
        raise GraphError("family parameters must be nonnegative")
    return _FAMILIES[family](*params)


# -- canonical form --------------------------------------------------------
#
# Exact canonical labelling: equitable refinement (cells split by neighbor
# counts, subcells ordered by count) followed by individualization search on
# the first non-singleton cell.  The ordered partition is positional, as in
# nauty (McKay, Congr. Numer. 30, 1981; McKay & Piperno, J. Symb. Comput. 60,
# 2014): ``cell_at[p]`` is the vertex mask of the cell that starts at position
# p of the order, and 0 at every other position, and ``multis`` lists the
# start positions of the cells of two or more vertices, ascending.  A cell
# that splits leaves its parts at its own position and after it, in count
# order, so no other cell's position ever shifts.  Every cell lists its
# vertices in ascending order, read off its mask: the root cell is 0..n-1,
# and a search node's child has the individualized vertex alone at the
# cell's position and the rest of the cell after it.
#
# Refinement takes the cells in position order as splitters, and for each
# one tests the cells of ``multis`` in order, since a singleton never splits.
# A singleton splitter {u} splits cell c exactly when ``c & rows[u]`` is
# neither 0 nor c, into the non-neighbours of u, then its neighbours; a
# larger splitter compares every vertex's neighbor count with the cell's
# first vertex's (the subcells are built only when the cell splits).  A
# splitter that splits no cell of a partition splits no cell of a finer one,
# so after a split only the cells from the smaller of the splitter's and the
# split cell's position on can change, and the scan resumes there; when the
# split cell lies after the splitter, the same splitter goes on past the new
# parts, each of which has one count in it.  Resuming does not change the
# sequence of splits, and so the ordered partition is that of a refinement
# rescanning every splitter after each split.  A search node's partition is
# equitable, so in a child (a finer partition, the same cells before the
# individualized one) no cell before the individualized cell's position
# splits any cell: the child's refinement starts its scan at that position
# and makes the splits of a scan from position 0.
#
# Twin cells (identical rows outside the cell, complete or empty inside)
# admit any internal order without changing the encoding, so they never
# branch; this keeps cliques, independent sets and unions of twins linear.
# The minimum upper-triangle encoding over all search leaves is the
# canonical form; exactness, not hashing, because age sets and census counts
# deduplicate by key.  Each leaf is encoded once, row by row, each row's
# segment from its neighbours later in the order, and the search returns the
# best leaf's code with its order; the LRU keeps both, and the canonical form
# is the graph relabelled in that order by :func:`_reorder`.
#
# The same walk yields generators of the automorphism group.  The tree is
# built from label-free choices only (refinement, first non-twin cell, every
# vertex of it), so an automorphism maps it onto itself and the best leaf onto
# a leaf with the same code; a leaf's code is fixed by its ordered partition,
# since twin cells encode alike in any internal order.  So every automorphism
# is the permutation taking the best leaf's order to that of another leaf of
# minimum code, times a permutation inside the best leaf's cells, which are
# singletons or twin cells, whose permutations are all automorphisms.  A
# degree test cuts the one-vertex extensions of a graph to the neighbourhood
# masks that give the new vertex maximum degree; it is invariant under the
# same group, so the masks that pass are whole orbits, and the orbits are
# then followed over those masks alone, one extension per orbit, before any
# canonical search.  :func:`max_degree_extensions` owns that rule, and
# :func:`extend_level` owns the level step built on it (extend, classify,
# sort).  Its callers classify by one LRU lookup in :func:`_classify`, which
# builds the canonical form only for a class not seen before: this step and
# the word-age pattern step an extension each, the prime windows' factor read
# (:func:`~wordgraphs.ages.word_prime_age`) one word graph per normal form.
# The census (:func:`enumerate_graphs`) iterates this step; the bound
# candidates (:func:`~wordgraphs.ages.bounds_enumerate`) and the generic age
# route (:func:`~wordgraphs.ages.age_enumerate`) filter it.


def _refine(rows: tuple[int, ...], cell_at: list[int], multis: list[int],
            si: int) -> None:
    """Equitable refinement, in place, of the positional partition
    ``cell_at`` whose cells of two or more vertices start at the positions
    ``multis`` (see above), scanning splitters from position ``si``; every
    splitter before ``si`` must split no cell.  A discrete partition ends the
    scan at once.

    Each splitter tests only the cells of ``multis``.  A singleton splitter
    {u} splits cell c exactly when ``c & rows[u]`` is neither 0 nor c, into
    ``[c ^ x, x]`` (counts 0, then 1); a larger one compares the vertices'
    neighbor counts in it.  A splitter that splits no cell of a partition
    splits no cell of a finer one, so after a split the scan resumes at the
    smaller of the splitter's and the split cell's position: no splitter
    before that position split a cell, and no cell before it changed.  For
    the same reason a search child, whose parent is equitable, may start at
    the position of the cell it individualized.
    """
    n = len(rows)
    while multis and si < n:
        smask = cell_at[si]
        k = 0
        if smask & (smask - 1):
            while k < len(multis):
                p = multis[k]
                c = cell_at[p]
                low = c & -c
                count = (rows[low.bit_length() - 1] & smask).bit_count()
                rest = c ^ low
                while rest:
                    low = rest & -rest
                    if (rows[low.bit_length() - 1] & smask).bit_count() != count:
                        break
                    rest ^= low
                else:
                    k += 1
                    continue
                groups: dict[int, int] = {}
                rest = c
                while rest:
                    low = rest & -rest
                    count = (rows[low.bit_length() - 1] & smask).bit_count()
                    groups[count] = groups.get(count, 0) | low
                    rest ^= low
                parts = [groups[count] for count in sorted(groups)]
                k = _place(cell_at, multis, k, p, parts)
                if p <= si:
                    si = p
                    break
            else:
                si += smask.bit_count()
        else:
            row = rows[smask.bit_length() - 1]
            while k < len(multis):
                p = multis[k]
                c = cell_at[p]
                x = c & row
                if not x or x == c:
                    k += 1
                    continue
                k = _place(cell_at, multis, k, p, [c ^ x, x])
                if p <= si:
                    si = p
                    break
            else:
                si += 1


def _place(cell_at: list[int], multis: list[int], k: int, p: int,
           parts: list[int]) -> int:
    """Put ``parts`` of the cell at position ``p`` (``multis[k]``) in its
    place, and return the index in ``multis`` past them."""
    new = []
    for part in parts:
        cell_at[p] = part
        if part & (part - 1):
            new.append(p)
        p += part.bit_count()
    multis[k:k + 1] = new
    return k + len(new)


def _is_twin_cell(rows: tuple[int, ...], cmask: int) -> bool:
    """Identical rows outside the cell ``cmask``, and the cell complete or
    empty inside."""
    low = cmask & -cmask
    first = rows[low.bit_length() - 1]
    inner = first & cmask
    if not inner:
        return all(rows[v] == first for v in _bits(cmask ^ low))
    if inner != cmask ^ low:
        return False
    full = first | low  # each row of a complete cell, with its own bit
    return all(rows[v] | (1 << v) == full for v in _bits(cmask ^ low))


def _encode(rows: tuple[int, ...], order: list[int]) -> int:
    """The upper triangle of the adjacency matrix in ``order``, read row by
    row as one integer, each row's later vertices from high bit to low."""
    n = len(order)
    place = [0] * n  # place[w]: w's bit within any row's segment
    for i, v in enumerate(order):
        place[v] = 1 << (n - 1 - i)
    later = (1 << n) - 1
    code = 0
    for i, v in enumerate(order):
        later ^= 1 << v
        segment = 0
        nbrs = rows[v] & later
        while nbrs:
            low = nbrs & -nbrs
            segment |= place[low.bit_length() - 1]
            nbrs ^= low
        code = (code << (n - 1 - i)) | segment
    return code


def _canonical_order(g: Graph, leaves: list | None = None) -> tuple[list[int], int]:
    """The first leaf order of minimum code, and that code; ``leaves``, if
    given, receives ``(code, order, cells)`` for every leaf in walk order,
    each cell its vertices in ascending order."""
    if g.n > CORE_WIDTH:
        raise GraphError(f"canonical form capped at {CORE_WIDTH} vertices")
    rows = g.rows
    best_code = -1
    best_order: list[int] = []

    def walk(cell_at: list[int], multis: list[int], start: int) -> None:
        nonlocal best_code, best_order
        _refine(rows, cell_at, multis, start)
        for k, t in enumerate(multis):
            if not _is_twin_cell(rows, cell_at[t]):
                break
        else:
            order = []
            for c in cell_at:
                if c & (c - 1):
                    order.extend(_bits(c))
                elif c:
                    order.append(c.bit_length() - 1)
            code = _encode(rows, order)
            if leaves is not None:
                # the empty graph's one cell is empty
                cells = [list(_bits(c)) for c in cell_at if c] or [[]]
                leaves.append((code, order, cells))
            if best_code < 0 or code < best_code:
                best_code = code
                best_order = order
            return
        mask = cell_at[t]
        # the rest of the cell starts at t + 1, before the next cell of multis
        child_multis = multis[:k] + multis[k + 1:]
        if mask.bit_count() > 2:
            child_multis.insert(k, t + 1)
        for v in _bits(mask):
            bit = 1 << v
            child = cell_at[:]
            child[t] = bit
            child[t + 1] = mask ^ bit
            walk(child, child_multis[:], t)

    n = g.n
    root = [0] * n
    if n:
        root[0] = (1 << n) - 1
    walk(root, [0] if n > 1 else [], 0)
    return best_order, best_code


@lru_cache(maxsize=1 << 18)
def _canonical_cached(n: int, rows: tuple[int, ...]) -> tuple[CanonKey, tuple[int, ...]]:
    order, code = _canonical_order(_trusted(n, rows))
    nbytes = (n * (n - 1) // 2 + 7) // 8
    key = bytes([n]) + code.to_bytes(nbytes, "big")
    return key, tuple(order)


def canonical_key(g: Graph) -> CanonKey:
    """Byte key equal for two graphs iff they are isomorphic (exact)."""
    return _canonical_cached(g.n, g.rows)[0]


def canonical_form(g: Graph) -> Graph:
    """Canonically relabelled copy; labels are dropped."""
    return _trusted(g.n, _reorder(g, _canonical_cached(g.n, g.rows)[1]))


def _classify(g: Graph,
              forms: dict[CanonKey, Graph]) -> tuple[CanonKey, tuple[int, ...]]:
    """The class key and canonical order of ``g``, from one LRU lookup; the
    canonical form goes into ``forms`` the first time its class appears."""
    key, order = _canonical_cached(g.n, g.rows)
    if key not in forms:
        forms[key] = _trusted(g.n, _reorder(g, order))
    return key, order


def _automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of ``g``, each as the image tuple
    ``perm[v]``, read off the leaves of its canonical search (see above):
    the best leaf's order mapped to every later leaf of the same code, and the
    transposition of each two consecutive vertices of a twin cell of the best
    leaf."""
    leaves: list[tuple[int, list[int], list[list[int]]]] = []
    _canonical_order(g, leaves)
    best_code = min(code for code, _, _ in leaves)
    first = next(i for i, leaf in enumerate(leaves) if leaf[0] == best_code)
    _, best, best_cells = leaves[first]
    gens = []
    for code, order, _ in leaves[first + 1:]:
        if code == best_code:
            perm = [0] * g.n
            for u, v in zip(best, order):
                perm[u] = v
            gens.append(tuple(perm))
    for cell in best_cells:
        for u, v in zip(cell, cell[1:]):
            perm = list(range(g.n))
            perm[u], perm[v] = v, u
            gens.append(tuple(perm))
    return gens


def _orbit_representatives(masks: Iterable[int],
                           gens: list[tuple[int, ...]]) -> list[int]:
    """The smallest mask of each orbit, ascending, of the group that ``gens``
    generate on the vertex masks, among ``masks``: an ascending list closed
    under the group, so each orbit met lies in it and its first mask met is
    its smallest.  With no generators every mask is its own orbit."""
    if not gens:
        return list(masks)
    images = [[1 << v for v in perm] for perm in gens]  # vertex -> its bit
    seen = set()
    reps = []
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        seen.add(mask)
        stack = [mask]
        while stack:
            x = stack.pop()
            for image in images:
                y, rest = 0, x
                while rest:
                    low = rest & -rest
                    y |= image[low.bit_length() - 1]
                    rest ^= low
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return reps


def max_degree_extensions(g: Graph) -> Iterator[Graph]:
    """One-vertex extensions of ``g`` by canonical deletion of a vertex of
    maximum degree (McKay, J. Algorithms 26, 1998).

    The masks ``nbrs`` that give the new vertex maximum degree come first:
    ``popcount(nbrs)`` at least every degree of g, and no neighbour of that
    same degree (it would gain one).  Degrees are invariant under g's
    automorphism group, so these masks are a union of whole orbits, and
    ``add_vertex(g, nbrs)`` is yielded for the smallest of each orbit among
    them (generators from :func:`_automorphism_generators`), ascending.
    Every graph with a vertex of maximum degree whose deletion is isomorphic
    to g is isomorphic to one extension yielded.
    """
    degrees = [row.bit_count() for row in g.rows]
    top = max(degrees, default=0)
    at = [0] * (g.n + 1)  # at[d]: the vertices of degree d
    for v, d in enumerate(degrees):
        at[d] |= 1 << v
    masks = [nbrs for nbrs in range(1 << g.n)
             if (d := nbrs.bit_count()) >= top and not nbrs & at[d]]
    for nbrs in _orbit_representatives(masks, _automorphism_generators(g)):
        yield add_vertex(g, nbrs)


# -- induced-subgraph embedding -------------------------------------------


def embedding(h: Graph, g: Graph) -> tuple[int, ...] | None:
    """An injective map realizing ``h`` as an induced subgraph of ``g``.

    Returns the image of pattern vertex ``p`` at position ``p``, or ``None``.
    Backtracking over bitmask candidate sets with forward checking: every
    assignment intersects the candidates of all unmapped pattern vertices
    with the neighborhood (or non-neighborhood) of the image, and the most
    constrained pattern vertex (fewest candidates, lowest index on ties) is
    branched next, its candidates in ascending order.  Each search node is
    one call of :func:`_solve`, and the nodes come in plain backtracking's
    order, so the image is plain backtracking's.
    """
    nh, ng = h.n, g.n
    full = (1 << ng) - 1
    hdeg = [h.degree(i) for i in range(nh)]
    gdeg = [g.degree(i) for i in range(ng)]
    base = []
    # both degree bounds hold only if ng >= nh, so a larger pattern ends here
    for p in range(nh):
        mask = 0
        for v in range(ng):
            if gdeg[v] >= hdeg[p] and (ng - 1 - gdeg[v]) >= (nh - 1 - hdeg[p]):
                mask |= 1 << v
        if not mask:
            return None
        base.append(mask)
    nonrows = [full ^ r ^ (1 << v) for v, r in enumerate(g.rows)]
    image = [-1] * nh
    if not _solve(list(range(nh)), base, h.rows, g.rows, nonrows, image):
        return None
    return tuple(image)


def _solve(todo: list[int], cands: list[int], hrows: tuple[int, ...],
           grows: tuple[int, ...], nonrows: list[int], image: list[int]) -> bool:
    """One node of the :func:`embedding` search: map the pattern vertices
    ``todo`` (ascending) into ``image``, each to a host vertex of its mask in
    ``cands`` (same order, used host vertices already removed).

    ``nonrows`` are the host's non-neighbour rows, each without the vertex
    itself; the branched vertex's pattern row picks the host row or the
    non-neighbour row for each unmapped vertex once per node.  A candidate's
    child masks go into one list per node, which the child only reads before
    the next candidate refills it.
    """
    if not todo:
        return True
    k = len(todo)
    i, count = 0, cands[0].bit_count()
    for j in range(1, k):
        c = cands[j].bit_count()
        if c < count:
            i, count = j, c
    p = todo[i]
    rest = todo[:i] + todo[i + 1:]
    rest_cands = cands[:i] + cands[i + 1:]
    hp = hrows[p]
    sels = [grows if (hp >> q) & 1 else nonrows for q in rest]
    nxt = [0] * (k - 1)  # refilled per candidate; the child only reads it
    cp = cands[i]
    while cp:
        low = cp & -cp
        v = low.bit_length() - 1
        cp ^= low
        for j in range(k - 1):
            x = rest_cands[j] & sels[j][v]
            if not x:
                break
            nxt[j] = x
        else:
            image[p] = v
            if _solve(rest, nxt, hrows, grows, nonrows, image):
                return True
    return False


def embeds(h: Graph, g: Graph) -> bool:
    """True iff some vertex subset of ``g`` induces a copy of ``h``."""
    return embedding(h, g) is not None


# -- exhaustive small-graph generation --------------------------------------


def extend_level(level: Iterable[Graph]) -> dict[CanonKey, Graph]:
    """The classes of one more vertex reached from ``level`` by canonical
    deletion: the canonical forms of every :func:`max_degree_extensions` of
    every graph in ``level``, deduplicated and sorted by key.

    A graph is reached iff it has a vertex of maximum degree whose deletion
    is isomorphic to a graph in ``level``, so the result does not depend on
    which member of an orbit or which representative of a class is tried.
    """
    seen: dict[CanonKey, Graph] = {}
    for g in level:
        for ext in max_degree_extensions(g):
            _classify(ext, seen)
    return dict(sorted(seen.items()))


_LEVEL_CACHE: list[tuple[Graph, ...]] = [(empty_graph(0),)]


def enumerate_graphs(n_max: int) -> list[list[Graph]]:
    """All isomorphism classes per order ``0..n_max`` (canonical reps).

    Level ``k + 1`` is :func:`extend_level` of level ``k``.  Exhaustive:
    deleting a vertex of maximum degree from any class leaves a class of
    the previous level.  Levels are cached across calls.
    """
    while len(_LEVEL_CACHE) <= n_max:
        _LEVEL_CACHE.append(tuple(extend_level(_LEVEL_CACHE[-1]).values()))
    return [list(level) for level in _LEVEL_CACHE[:n_max + 1]]
