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
per unmapped pattern vertex, with the used host vertices removed, and places
the last two pattern vertices by one scan with no recursion.  It visits the
nodes of plain backtracking in the same order, so its images are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

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
        for i in range(self.n):
            row = self.rows[i] >> (i + 1)
            j = i + 1
            while row:
                if row & 1:
                    yield (i, j)
                row >>= 1
                j += 1

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


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced on vertex indices ``s``, kept in ascending order."""
    kept = sorted(set(s))
    for v in kept:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex index {v} out of range for order {g.n}")
    pos = {v: a for a, v in enumerate(kept)}
    rows = [0] * len(kept)
    for a, v in enumerate(kept):
        row = g.rows[v]
        acc = 0
        for w in kept:
            if (row >> w) & 1:
                acc |= 1 << pos[w]
        rows[a] = acc
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[v] for v in kept)
    return _trusted(len(kept), tuple(rows), labels)


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
# the first non-singleton cell.  Each cell travels with its vertex mask: a
# search node's child gets the parent's masks with the individualized vertex's
# bit and the rest of its cell, and refinement replaces the masks of a cell
# it splits.  Refinement scans the cells in order as splitters, and for each
# one tests the cells in order, comparing every vertex's neighbor count in the
# splitter with the cell's first vertex's (the subcells are built only when
# the cell splits).  A splitter cell that splits no cell is settled, since it
# cannot split any cell of a finer partition either, so its mask is skipped on
# every later scan, and a search node starts from the masks settled at its
# parent (whose partition it refines).  After a split the scan resumes at the
# smaller of the splitter's and the split cell's index: every splitter before
# the splitter is settled, every cell before the split cell is unchanged, so
# a scan from the first splitter would skip all of those again.  Neither the
# skipping nor the resuming changes the sequence of splits, and so the ordered
# partition is that of a refinement rescanning every splitter after each
# split.  Twin cells (identical rows outside the cell, complete or empty
# inside) admit any internal order without changing the encoding, so they
# never branch; this keeps cliques, independent sets and unions of twins
# linear.  The minimum upper-triangle encoding over all search leaves is the
# canonical form; exactness, not hashing, because age sets and census counts
# deduplicate by key.  Each leaf is encoded once, row by row, each row's
# segment from its neighbours later in the order, and the search returns the
# best leaf's code with its order.
#
# The same walk yields generators of the automorphism group.  The tree is
# built from label-free choices only (refinement, first non-twin cell, every
# vertex of it), so an automorphism maps it onto itself and the best leaf onto
# a leaf with the same code; a leaf's code is fixed by its ordered partition,
# since twin cells encode alike in any internal order.  So every automorphism
# is the permutation taking the best leaf's order to that of another leaf of
# minimum code, times a permutation inside the best leaf's cells, which are
# singletons or twin cells, whose permutations are all automorphisms.  Their
# orbits on neighbourhood masks cut the one-vertex extensions of a graph; a
# degree test, invariant under the same group, cuts them again before any
# canonical search, to the masks that give the new vertex maximum degree.
# :func:`max_degree_extensions` owns that rule; the census
# (:func:`enumerate_graphs`) and the bound candidates
# (:func:`~wordgraphs.ages.bounds_enumerate`) both extend through it.


def _refine(rows: tuple[int, ...], cells: list[list[int]], masks: list[int],
            settled: set[int]) -> tuple[list[list[int]], list[int], set[int]]:
    """Equitable refinement of ``cells``, whose vertex masks are ``masks``,
    with the splitter masks settled on it.

    ``cells`` and ``masks`` are refined in place and returned.  ``settled``
    holds masks settled on a coarser partition; it is copied, not extended,
    because sibling search nodes refine different partitions.  A discrete
    partition is returned at once: it is a leaf, so its settled masks go unused.
    """
    n = len(rows)
    settled = set(settled)
    si = 0
    while si < len(cells) < n:
        smask = masks[si]
        if smask in settled:
            si += 1
            continue
        for di, cell in enumerate(cells):
            if len(cell) <= 1:
                continue
            count = (rows[cell[0]] & smask).bit_count()
            for v in cell:
                if (rows[v] & smask).bit_count() != count:
                    break
            else:
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((rows[v] & smask).bit_count(), []).append(v)
            parts = [groups[c] for c in sorted(groups)]
            cells[di:di + 1] = parts
            part_masks = []
            for part in parts:
                pmask = 0
                for v in part:
                    pmask |= 1 << v
                part_masks.append(pmask)
            masks[di:di + 1] = part_masks
            if di < si:  # cells before di are unchanged, splitters before si settled
                si = di
            break
        else:
            settled.add(smask)
            si += 1
    return cells, masks, settled


def _is_twin_cell(rows: tuple[int, ...], cell: list[int], cmask: int) -> bool:
    if len(cell) <= 1:
        return True
    outside = rows[cell[0]] & ~cmask
    if any(rows[v] & ~cmask != outside for v in cell[1:]):
        return False
    inner = [rows[v] & cmask for v in cell]
    if all(x == 0 for x in inner):
        return True
    return all(inner[k] == cmask ^ (1 << v) for k, v in enumerate(cell))


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
    given, receives ``(code, order, cells)`` for every leaf in walk order."""
    if g.n > CORE_WIDTH:
        raise GraphError(f"canonical form capped at {CORE_WIDTH} vertices")
    rows = g.rows
    if g.n <= 1:
        return list(range(g.n)), 0
    best_code = -1
    best_order: list[int] = []

    def walk(cells: list[list[int]], masks: list[int], settled: set[int]) -> None:
        nonlocal best_code, best_order
        cells, masks, settled = _refine(rows, cells, masks, settled)
        target = -1
        for ci, cell in enumerate(cells):
            if len(cell) > 1 and not _is_twin_cell(rows, cell, masks[ci]):
                target = ci
                break
        if target < 0:
            order = [v for cell in cells for v in sorted(cell)]
            code = _encode(rows, order)
            if leaves is not None:
                leaves.append((code, order, cells))
            if best_code < 0 or code < best_code:
                best_code = code
                best_order = order
            return
        cell, mask = cells[target], masks[target]
        cells_before, cells_after = cells[:target], cells[target + 1:]
        masks_before, masks_after = masks[:target], masks[target + 1:]
        for v in sorted(cell):
            rest = [w for w in cell if w != v]
            bit = 1 << v
            walk(cells_before + [[v], rest] + cells_after,
                 masks_before + [bit, mask ^ bit] + masks_after, settled)

    walk([list(range(g.n))], [(1 << g.n) - 1], set())
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
    order = _canonical_cached(g.n, g.rows)[1]
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * g.n
    for i, v in enumerate(order):
        acc = 0
        for w in _bits(g.rows[v]):
            acc |= 1 << pos[w]
        rows[i] = acc
    return _trusted(g.n, tuple(rows))


def _automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of ``g``, each as the image tuple
    ``perm[v]``, read off the leaves of its canonical search (see above):
    the best leaf's order mapped to every later leaf of the same code, and the
    transposition of each two consecutive vertices of a twin cell of the best
    leaf."""
    leaves: list[tuple[int, list[int], list[list[int]]]] = []
    _canonical_order(g, leaves)
    if not leaves:
        return []  # order <= 1
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
        cell = sorted(cell)
        for u, v in zip(cell, cell[1:]):
            perm = list(range(g.n))
            perm[u], perm[v] = v, u
            gens.append(tuple(perm))
    return gens


def _orbit_representatives(n: int, gens: list[tuple[int, ...]]) -> list[int]:
    """The smallest vertex mask of each orbit of the group that ``gens``
    generate on the subsets of ``0..n-1``, ascending."""
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


def max_degree_extensions(g: Graph) -> Iterator[Graph]:
    """One-vertex extensions of ``g`` by canonical deletion of a vertex of
    maximum degree (McKay, J. Algorithms 26, 1998).

    Yields ``add_vertex(g, nbrs)`` for the smallest mask ``nbrs`` of each
    orbit of g's automorphism group (generators from
    :func:`_automorphism_generators`), keeping only the masks that give the
    new vertex maximum degree: ``popcount(nbrs)`` at least every degree of
    g, and no neighbour of that same degree (it would gain one).  Degrees
    are invariant under the group, so the test keeps or drops whole orbits.
    Every graph with a vertex of maximum degree whose deletion is isomorphic
    to g is isomorphic to one extension yielded.
    """
    degrees = [row.bit_count() for row in g.rows]
    top = max(degrees, default=0)
    at = [0] * (g.n + 1)  # at[d]: the vertices of degree d
    for v, d in enumerate(degrees):
        at[d] |= 1 << v
    for nbrs in _orbit_representatives(g.n, _automorphism_generators(g)):
        d = nbrs.bit_count()
        if d < top or nbrs & at[d]:
            continue  # some vertex outranks the new one in degree
        yield add_vertex(g, nbrs)


# -- induced-subgraph embedding -------------------------------------------


def embedding(h: Graph, g: Graph) -> tuple[int, ...] | None:
    """An injective map realizing ``h`` as an induced subgraph of ``g``.

    Returns the image of pattern vertex ``p`` at position ``p``, or ``None``.
    Backtracking over bitmask candidate sets with forward checking: every
    assignment intersects the candidates of all unmapped pattern vertices
    with the neighborhood (or non-neighborhood) of the image, and the most
    constrained pattern vertex (fewest candidates, lowest index on ties) is
    branched next, its candidates in ascending order.

    A search node holds the unmapped pattern vertices in ascending order and
    their candidate masks, with every used host vertex already removed, so a
    count is a plain ``bit_count``.  The host's neighbour rows and
    non-neighbour rows (each without the vertex itself) are built once per
    call, and the branched vertex's pattern row picks one of the two for each
    unmapped vertex once per node.  A candidate's child masks go into one list
    per node, which the child only reads before the next candidate refills it.
    With two left, the picked vertex ``p`` takes the first candidate ``v``
    whose narrowed mask for the other vertex ``q`` is nonempty, and ``q``
    takes that mask's lowest bit, as one more level of branching would.
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

    grows = g.rows
    nonrows = [full ^ r ^ (1 << v) for v, r in enumerate(grows)]
    hrows = h.rows
    image = [-1] * nh

    # a node: the unmapped pattern vertices (``todo``, ascending) and their
    # candidate masks of unused host vertices (``cands``, in the same order)
    def last_two(a: int, b: int, ca: int, cb: int) -> bool:
        if ca.bit_count() <= cb.bit_count():
            p, q, cp, cq = a, b, ca, cb
        else:
            p, q, cp, cq = b, a, cb, ca
        sel = grows if (hrows[p] >> q) & 1 else nonrows
        while cp:
            low = cp & -cp
            v = low.bit_length() - 1
            hit = cq & sel[v]
            if hit:
                image[p] = v
                image[q] = (hit & -hit).bit_length() - 1
                return True
            cp ^= low
        return False

    def solve(todo: list[int], cands: list[int]) -> bool:
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
        two = k == 3
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
                if (last_two(rest[0], rest[1], nxt[0], nxt[1]) if two
                        else solve(rest, nxt)):
                    return True
        return False

    if nh == 1:
        image[0] = (base[0] & -base[0]).bit_length() - 1
        found = True
    elif nh == 2:
        found = last_two(0, 1, base[0], base[1])
    else:
        found = solve(list(range(nh)), base)
    # solve reaches itself through its closure cell; emptying the cell frees
    # the search state now rather than at a later cyclic collection, which
    # would let the host rows of many calls pile up as garbage
    solve = None
    return tuple(image) if found else None


def embeds(h: Graph, g: Graph) -> bool:
    """True iff some vertex subset of ``g`` induces a copy of ``h``."""
    return embedding(h, g) is not None


# -- exhaustive small-graph generation --------------------------------------


_LEVEL_CACHE: list[tuple[Graph, ...]] = [(empty_graph(0),)]


def enumerate_graphs(n_max: int) -> list[list[Graph]]:
    """All isomorphism classes per order ``0..n_max`` (canonical reps).

    Level ``k + 1`` is built by attaching one vertex to each level-``k``
    representative, deduplicating by canonical key.  Exhaustive: deleting a
    vertex of maximum degree from any class leaves a class of the previous
    level, so only the extensions of :func:`max_degree_extensions`, the
    owner of that rule, are tried: one per orbit of the parent's
    automorphism group, with the new vertex of maximum degree.  The level is
    the same set of keys, sorted, so it does not depend on which masks are
    tried.  Levels are cached across calls.
    """
    while len(_LEVEL_CACHE) <= n_max:
        k = len(_LEVEL_CACHE) - 1
        seen: dict[CanonKey, Graph] = {}
        for g in _LEVEL_CACHE[k]:
            for ext in max_degree_extensions(g):
                key = canonical_key(ext)
                if key not in seen:
                    seen[key] = canonical_form(ext)
        _LEVEL_CACHE.append(tuple(seen[key] for key in sorted(seen)))
    return [list(level) for level in _LEVEL_CACHE[:n_max + 1]]
