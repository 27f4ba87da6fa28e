"""Age enumeration, age inclusion, bound certificates, and the Jónsson-style
desk check for prime members.

An age approximation holds, per size up to ``k_max``, the exact isomorphism
classes of induced subgraphs of one finite source graph.  There are two
routes to it.

Word graphs (``word_age``) take the pattern route, with no search.  In the
prefix graph, vertex -1 sits at index 0 and the letter at label t - 1 sits
at index t; a pair is decided by the letter at its larger index and by
whether the two indices are consecutive.  Chosen indices t1 < ... < tk can
only be consecutive as neighbours in that order, so the induced subgraph is
fixed by the letters at t2..tk and the k - 1 flags "t(i+1) = t(i) + 1".
Level by level, each such gapped-factor pattern keeps the bitmask of indices
where it can end; appending letter c is an adjacent move (ends shifted by
one, intersected with the indices of c) or a gap move (indices of c at
least two past the lowest end).  A pattern occurs iff its mask is nonzero,
so the levels are exact; patterns with equal graphs merge their masks.  A
pattern of level k + 1 is a pattern of level k plus one vertex, so its class
is the parent's canonical form plus the new row mapped into it: one canonical
search per parent class and new row, however many patterns share them.

Generic sources (``age_enumerate``) take the extension route: every member
of size k+1 contains a member of size k, so attaching a new vertex with
every possible neighborhood to each class of level k and filtering by an
embedding search into the source is complete.  It is also the independent
oracle that the tests hold the pattern route to.  Bound enumeration draws
on the same candidate pool, since a minimal non-member has all its
one-vertex deletions inside the age, and by canonical deletion it needs only
part of it: deleting a vertex of maximum degree from a bound leaves a
member, and in that member's canonical form the deleted vertex becomes a
neighbourhood mask that gives the new vertex maximum degree, so the bound
is isomorphic to one of the member's
:func:`~wordgraphs.graphs.max_degree_extensions`.

Everything about an infinite age is reported at a finite scale and says so:
a bound certificate records the prefix length at which the non-membership
search failed and can be re-validated from scratch at any larger scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph6 import to_graph6
from .graphs import (
    CanonKey,
    Graph,
    GraphError,
    _canonical_cached,
    _trusted,
    add_vertex,
    canonical_form,
    canonical_key,
    delete_vertex,
    embeds,
    max_degree_extensions,
)
from .primes import is_prime
from .wordgraph import graph_of_word, letter_masks
from .words import Word


@dataclass
class AgeApprox:
    """Exact induced-subgraph classes of ``source`` up to size ``k_max``."""

    source: Graph
    source_desc: str
    k_max: int
    levels: dict[int, dict[CanonKey, Graph]]

    def keys(self, size: int) -> set[CanonKey]:
        return set(self.levels.get(size, {}))

    def members(self, size: int) -> list[Graph]:
        return list(self.levels.get(size, {}).values())

    def level_counts(self) -> dict[int, int]:
        return {size: len(self.levels[size]) for size in sorted(self.levels)}


def age_enumerate(source: Graph, k_max: int, source_desc: str = "graph") -> AgeApprox:
    """Level-by-level extension with canonical dedup and embedding filter."""
    if k_max > source.n:
        raise GraphError("k_max exceeds the source order")
    levels: dict[int, dict[CanonKey, Graph]] = {
        0: {canonical_key(Graph(0, ())): Graph(0, ())}}
    for k in range(k_max):
        nxt: dict[CanonKey, Graph] = {}
        rejected: set[CanonKey] = set()
        for member in levels[k].values():
            for nbrs in range(1 << k):
                cand = add_vertex(member, nbrs)
                key = canonical_key(cand)
                if key in nxt or key in rejected:
                    continue
                # heredity prefilter: a member's one-vertex deletions are all
                # members, and deletion keys are far cheaper than the search
                # (deleting the new vertex returns `member`, no need to check)
                hereditary = all(
                    canonical_key(delete_vertex(cand, v)) in levels[k]
                    for v in range(cand.n - 1))
                if hereditary and embeds(cand, source):
                    nxt[key] = canonical_form(cand)
                else:
                    rejected.add(key)
        levels[k + 1] = {key: nxt[key] for key in sorted(nxt)}
    return AgeApprox(source=source, source_desc=source_desc, k_max=k_max,
                     levels=levels)


@dataclass(frozen=True)
class InclusionResult:
    included_at_scale: bool
    k_max: int
    witness: Graph | None = None


def age_includes(a: AgeApprox, b: AgeApprox) -> InclusionResult:
    """Is every member of ``a`` a member of ``b``, at a's scale?"""
    if a.k_max > b.k_max:
        raise GraphError("inclusion check needs b enumerated at least as far as a")
    for size in sorted(a.levels):
        for key, member in a.levels[size].items():
            if key not in b.levels.get(size, {}):
                return InclusionResult(False, a.k_max, witness=member)
    return InclusionResult(True, a.k_max)


# -- word-graph ages by gapped-factor patterns ----------------------------------


def _moves(ends: int, pos: tuple[int, int]) -> list[tuple[int, int, int]]:
    """The moves that append one vertex to a pattern ending at ``ends``.

    This is the move rule of the prefix graph, and its only owner.  The new
    vertex takes an index with letter c (``pos[c]``, from
    :func:`~wordgraphs.wordgraph.letter_masks`) one past an end (an adjacent
    move) or at least two past the lowest end (a gap move).  A letter 0 sees
    every earlier vertex and a letter 1 none, except that an adjacent move
    flips the last one.  Each move is ``(base, flip, reach)``.  The new
    vertex's row into the earlier vertices ``seen``, of which vertex
    ``last`` is the last, is ``(base & seen) ^ (flip << last)``: all but the
    last, all, only the last, or none.  ``reach`` is the mask of indices
    where the longer pattern can end.  Moves that cannot occur are left out.
    """
    above_gap = ~(((ends & -ends) << 2) - 1)  # indices >= lowest end + 2
    moves = []
    for base, letter_pos in ((-1, pos[0]), (0, pos[1])):
        for flip, reach in ((1, (ends << 1) & letter_pos),
                            (0, letter_pos & above_gap)):
            if reach:
                moves.append((base, flip, reach))
    return moves


def _extend_patterns(states: dict[tuple[int, ...], list], k: int,
                     pos: tuple[int, int],
                     forms: dict[CanonKey, Graph]) -> dict[tuple[int, ...], list]:
    """Append one letter to every k-vertex pattern, by each of its :func:`_moves`.

    A state maps the pattern's rows to ``[ends, class key, at]``, where
    ``at`` is the index of the pattern's last vertex in the class's
    canonical form ``forms[key]``, so the new row mapped into that form is
    the move's row with ``at`` as the last vertex.  The child's class is the
    form plus that row: its canonical search depends only on the parent
    class and the row, and the LRU of :func:`_canonical_cached` serves every
    repeat of that pair.
    """
    full = (1 << k) - 1
    nxt: dict[tuple[int, ...], list] = {}
    for rows, (ends, key, at) in states.items():
        form = forms[key].rows
        for base, flip, reach in _moves(ends, pos):
            nbrs = (base & full) ^ (flip << (k - 1))
            grown = tuple(r | (((nbrs >> i) & 1) << k)
                          for i, r in enumerate(rows)) + (nbrs,)
            state = nxt.get(grown)
            if state is not None:
                state[0] |= reach
                continue
            mapped = (base & full) ^ (flip << at)
            extended = tuple(r | (((mapped >> i) & 1) << k)
                             for i, r in enumerate(form)) + (mapped,)
            child_key, order = _canonical_cached(k + 1, extended)
            if child_key not in forms:
                forms[child_key] = canonical_form(_trusted(k + 1, extended))
            # vertex k of the extended form is the child's last vertex
            nxt[grown] = [reach, child_key, order.index(k)]
    return nxt


def word_age(w: Word, L: int, k_max: int) -> AgeApprox:
    """Age of the word graph at prefix ``L``, enumerated without any search.

    States of level k map a k-vertex pattern graph (its vertices in position
    order) to the bitmask of source indices where the pattern can end, and
    to its class: the canonical key and where the pattern's last vertex sits
    in the canonical form.  States stay distinct, since their end masks
    differ, but the canonical search runs once per parent class and new row
    (see :func:`_extend_patterns`), not once per state.  A level is the set
    of its states' keys, sorted, with the canonical forms as members.
    """
    source = graph_of_word(w, L)
    if k_max > source.n:
        raise GraphError("k_max exceeds the source order")
    pos = letter_masks(w, L)
    empty = Graph(0, ())
    levels: dict[int, dict[CanonKey, Graph]] = {0: {canonical_key(empty): empty}}
    vertex = _trusted(1, (0,))
    vertex_key = canonical_key(vertex)
    forms = {vertex_key: vertex}  # class key -> canonical form, every level
    # one vertex ends anywhere in 0..L
    states = {(0,): [(1 << source.n) - 1, vertex_key, 0]}
    for k in range(1, k_max + 1):
        if k > 1:
            states = _extend_patterns(states, k - 1, pos, forms)
        keys = {key for _, key, _ in states.values()}
        levels[k] = {key: forms[key] for key in sorted(keys)}
    return AgeApprox(source=source, source_desc=json.dumps({"word_prefix": L}),
                     k_max=k_max, levels=levels)


def in_word_age(h: Graph, w: Word, L: int) -> bool:
    """Does ``h`` embed in the word graph of the length-L prefix of ``w``?

    Decided from the prefix's letters, with no host graph and no canonical
    labelling.  An embedding, read in index order, is an order of h's
    vertices in which each vertex's row into the ones before it is the row
    of one of the :func:`_moves`; :class:`_OrderSearch` looks for one.
    """
    pos = letter_masks(w, L)
    anywhere = pos[0] | pos[1] | 1  # one vertex ends at any index 0..L
    search = _OrderSearch(h, pos)
    return h.n == 0 or any(search.completes(1 << v, v, anywhere)
                           for v in range(h.n))


class _OrderSearch:
    """Depth-first search over the orders of h's vertices that fit a prefix.

    A vertex may come next when its row into the placed ones is the row of
    a move with a nonempty reach; its end mask is the union of the reaches
    of every such move.  What lies below a node depends only on (placed,
    last, end mask), so the nodes that fail are remembered, and so are the
    moves of each end mask.  Both memos live as long as the search, which
    is one :func:`in_word_age` call.
    """

    def __init__(self, h: Graph, pos: tuple[int, int]) -> None:
        self.rows = h.rows
        self.full = (1 << h.n) - 1
        self.pos = pos
        self.failed: set[tuple[int, int, int]] = set()
        self.moves: dict[int, list[tuple[int, int, int]]] = {}  # ends -> _moves

    def completes(self, used: int, last: int, ends: int) -> bool:
        """Can the placed vertices ``used``, the last one ``last`` ending at
        ``ends``, be followed by all the others?"""
        if used == self.full:
            return True
        node = (used, last, ends)
        if node in self.failed:
            return False
        moves = self.moves.get(ends)
        if moves is None:
            moves = self.moves[ends] = _moves(ends, self.pos)
        reaches: dict[int, int] = {}
        for base, flip, reach in moves:
            row = (base & used) ^ (flip << last)
            reaches[row] = reaches.get(row, 0) | reach
        free = self.full ^ used
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            reach = reaches.get(self.rows[v] & used)
            if reach and self.completes(used | bit, v, reach):
                return True
        self.failed.add(node)
        return False


# -- bounds ---------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    """A minimal non-member at scale: all deletions embed, the graph does not."""

    graph: Graph
    key: CanonKey
    deletion_keys: tuple[CanonKey, ...]
    non_membership_scale: int


def bounds_enumerate(w: Word, L: int, k_max: int) -> list[BoundCertificate]:
    """Bound certificates of the word-graph age, sizes up to ``k_max``.

    Candidates are one-vertex extensions of members: a bound's deletions all
    lie in the age, so deleting its vertex of maximum degree lands in a
    member class, and the bound is isomorphic to one of that member's
    :func:`~wordgraphs.graphs.max_degree_extensions` (one per orbit of the
    member's automorphism group, new vertex of maximum degree).  A candidate
    is a bound iff it is not a member and every deletion is; the deletion
    keys stop at the first one outside the level below.  Certificates are
    canonical forms sorted by (order, key), so they do not depend on which
    isomorphic candidate found them.
    """
    if L < k_max:
        raise GraphError("prefix length must be at least k_max")
    age = word_age(w, L, k_max)
    certificates: list[BoundCertificate] = []
    seen: set[CanonKey] = set()
    for k in range(1, k_max + 1):
        below = age.levels[k - 1]
        for member in below.values():
            for cand in max_degree_extensions(member):
                key = canonical_key(cand)
                if key in seen:
                    continue
                seen.add(key)
                if key in age.levels[k]:
                    continue
                del_keys = []
                for v in range(cand.n):
                    dk = canonical_key(delete_vertex(cand, v))
                    if dk not in below:
                        break
                    del_keys.append(dk)
                else:
                    certificates.append(BoundCertificate(
                        graph=canonical_form(cand), key=key,
                        deletion_keys=tuple(sorted(del_keys)),
                        non_membership_scale=L))
    certificates.sort(key=lambda c: (c.graph.n, c.key))
    return certificates


def validate_bound_certificate(cert: BoundCertificate, w: Word, L: int) -> bool:
    """Re-check from scratch at scale L: deletions embed, the graph does not.

    Membership goes by vertex orders (:func:`in_word_age`), not by the
    patterns and canonical forms that made the certificate.
    """
    if in_word_age(cert.graph, w, L):
        return False
    return all(in_word_age(delete_vertex(cert.graph, v), w, L)
               for v in range(cert.graph.n))


# -- Joensson desk check ------------------------------------------------------------


@dataclass
class JonssonReport:
    """Finite-scale evidence only; never a minimality verdict."""

    prime_only: bool
    level_counts: dict[int, int]
    cofinality: dict[int, int | None]
    failure_witnesses: dict[int, tuple[Graph, Graph]] = field(default_factory=dict)
    degenerate: bool = False
    note: str = ""


def jonsson_desk_check(age: AgeApprox, prime_only: bool = True,
                       n_max: int = 5) -> JonssonReport:
    """Per-level prime counts plus the cofinality table m(n).

    m(n) is the least m such that every (prime) member of size at most n
    embeds in every (prime) member of size at least m, within the
    approximation; None with a witness pair when no m at the scale works.
    One pass: each member s gets m_s, one more than the order of the first
    host it misses, walking the hosts from size ``k_max`` down (0 if it
    misses none), and m(n) is the largest m_s over sizes up to n.  A walk
    stops below that running maximum, where a miss cannot raise it.  The
    first member to miss a host of size ``k_max`` is the witness from then
    on.  Members of order 0 and 1 need no walk: the empty graph embeds in
    every host, and a vertex in every host but the empty graph.
    """
    members = {size: [g for g in age.members(size)
                      if not prime_only or is_prime(g)]
               for size in sorted(age.levels)}
    level_counts = {size: len(gs) for size, gs in members.items()}
    top = max((s for s, c in level_counts.items() if c), default=0)
    degenerate = top <= 2
    hosts = [h for size in sorted(members, reverse=True) for h in members[size]]
    empty_host = hosts[-1] if hosts and hosts[-1].n == 0 else None
    cofinality: dict[int, int | None] = {}
    failures: dict[int, tuple[Graph, Graph]] = {}
    worst, witness = 0, None
    for n in range(0, n_max + 1):
        for s in members.get(n, []):
            miss = None
            if n == 1 and worst == 0:
                miss = empty_host
            elif n > 1:
                for h in hosts:
                    if h.n < worst:
                        break
                    if not embeds(s, h):
                        miss = h
                        break
            if miss is not None:
                worst = miss.n + 1
                if worst > age.k_max:
                    witness = (s, miss)
        cofinality[n] = worst if worst <= age.k_max else None
        if witness is not None:
            failures[n] = witness
    note = ("prime members stop at size 2; degenerate case"
            if degenerate else "")
    return JonssonReport(prime_only=prime_only, level_counts=level_counts,
                         cofinality=cofinality, failure_witnesses=failures,
                         degenerate=degenerate, note=note)


# -- serialization ---------------------------------------------------------------


def age_to_json(age: AgeApprox) -> dict:
    return {
        "source": age.source_desc,
        "k_max": age.k_max,
        "levels": {str(size): sorted(key.hex() for key in keys)
                   for size, keys in ((s, age.keys(s)) for s in sorted(age.levels))},
    }


def age_csv(age: AgeApprox) -> str:
    lines = ["size,member_count"]
    for size in sorted(age.levels):
        lines.append(f"{size},{len(age.levels[size])}")
    return "\n".join(lines) + "\n"


def bounds_to_json(certs: list[BoundCertificate]) -> list[dict]:
    return [{
        "graph6": to_graph6(c.graph),
        "key": c.key.hex(),
        "order": c.graph.n,
        "deletion_keys": [k.hex() for k in c.deletion_keys],
        "non_membership_scale": c.non_membership_scale,
    } for c in certs]


def bounds_summary_csv(certs: list[BoundCertificate]) -> str:
    by_size: dict[int, int] = {}
    for c in certs:
        by_size[c.graph.n] = by_size.get(c.graph.n, 0) + 1
    lines = ["size,bound_count"]
    for size in sorted(by_size):
        lines.append(f"{size},{by_size[size]}")
    return "\n".join(lines) + "\n"


def jonsson_to_json(report: JonssonReport) -> dict:
    return {
        "prime_only": report.prime_only,
        "level_counts": {str(k): v for k, v in report.level_counts.items()},
        "cofinality": {str(k): v for k, v in report.cofinality.items()},
        "degenerate": report.degenerate,
        "note": report.note,
    }
