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
least two past the lowest end).  Both moves distribute over a union of end
masks, so what can follow a pattern depends only on its class, where its
last vertex sits in the class's canonical form, and its mask: patterns that
agree on the first two share one state and OR their masks.  A state occurs
iff its mask is nonzero, so the levels are exact.  A state of level k + 1 is
a state of level k plus one vertex, so its class is the parent's canonical
form plus the new row mapped into it.

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


def _extend_patterns(states: dict[tuple[CanonKey, int], int], k: int,
                     pos: tuple[int, int],
                     forms: dict[CanonKey, Graph]) -> dict[tuple[CanonKey, int], int]:
    """Append one letter to every k-vertex state, by each of its :func:`_moves`.

    A state maps ``(class key, at)`` to the OR of its patterns' end masks,
    where ``at`` is the index of the patterns' last vertex in the class's
    canonical form ``forms[key]``, so the new row mapped into that form is
    the move's row with ``at`` as the last vertex.  The child's class is the
    form plus that row, and its ``at`` is where the new vertex lands in the
    child's form; the LRU of :func:`_canonical_cached` serves every repeat
    of a (parent class, row) pair.
    """
    full = (1 << k) - 1
    nxt: dict[tuple[CanonKey, int], int] = {}
    for (key, at), ends in states.items():
        form = forms[key].rows
        for base, flip, reach in _moves(ends, pos):
            mapped = (base & full) ^ (flip << at)
            extended = tuple(r | (((mapped >> i) & 1) << k)
                             for i, r in enumerate(form)) + (mapped,)
            child_key, order = _canonical_cached(k + 1, extended)
            if child_key not in forms:
                forms[child_key] = canonical_form(_trusted(k + 1, extended))
            # vertex k of the extended form is the child's last vertex
            child = (child_key, order.index(k))
            nxt[child] = nxt.get(child, 0) | reach
    return nxt


def word_age(w: Word, L: int, k_max: int) -> AgeApprox:
    """Age of the word graph at prefix ``L``, enumerated without any search.

    States of level k map a class and the position of the last vertex in
    its canonical form to the bitmask of source indices where some k-vertex
    pattern with that class and last vertex can end (see
    :func:`_extend_patterns`).  A level is the set of its states' class
    keys, sorted, with the canonical forms as members.
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
    states = {(vertex_key, 0): (1 << source.n) - 1}
    for k in range(1, k_max + 1):
        if k > 1:
            states = _extend_patterns(states, k - 1, pos, forms)
        keys = {key for key, _ in states}
        levels[k] = {key: forms[key] for key in sorted(keys)}
    return AgeApprox(source=source, source_desc=json.dumps({"word_prefix": L}),
                     k_max=k_max, levels=levels)


def subsets_in_word_age(h: Graph, w: Word, L: int) -> set[int]:
    """The vertex masks S of ``h`` such that h[S] embeds in the word graph
    of the length-L prefix of ``w``.

    Decided from the prefix's letters, with no host graph and no canonical
    labelling.  An embedding of h[S], read in index order, is an order of S
    in which each vertex's row into the ones before it is the row of one of
    the :func:`_moves`.  One forward pass grows all such orders at once, a
    vertex at a time: a state ``(placed, last)`` holds the OR of the end
    masks of every order of ``placed`` that ends at ``last``, since the moves
    distribute over that union.  There are at most n 2^(n-1) states, and
    far fewer distinct end masks, so the moves of each are kept.  A move's
    row sees all of the placed vertices before ``last`` or none of them,
    and ``last`` or not, so the vertices that fit it come from two masks
    kept per placed set: the vertices that see all of it, and none of it.
    """
    pos = letter_masks(w, L)
    rows, full = h.rows, (1 << h.n) - 1
    # one vertex ends at any index 0..L
    states = {(1 << v, v): pos[0] | pos[1] | 1 for v in range(h.n)}
    found = {0}
    moves: dict[int, list[tuple[int, int, int]]] = {}  # ends -> _moves
    sees_all, sees_none = {0: full}, {0: full}  # placed set -> vertex mask
    while states:
        found.update(used for used, _ in states)
        nxt: dict[tuple[int, int], int] = {}
        for (used, last), ends in states.items():
            ends_moves = moves.get(ends)
            if ends_moves is None:
                ends_moves = moves[ends] = _moves(ends, pos)
            rest, row = used ^ (1 << last), rows[last]
            on_all, on_none = sees_all[rest], sees_none[rest]
            if used not in sees_all:
                sees_all[used], sees_none[used] = on_all & row, on_none & ~row
            free = full ^ used
            for base, flip, reach in ends_moves:
                # the move's row sees all of rest iff base, and last iff
                # its bit there, (base ^ flip) & 1, is set
                fit = ((on_all if base else on_none)
                       & (row if (base ^ flip) & 1 else ~row) & free)
                while fit:
                    bit = fit & -fit
                    fit ^= bit
                    child = (used | bit, bit.bit_length() - 1)
                    nxt[child] = nxt.get(child, 0) | reach
        states = nxt
    return found


def in_word_age(h: Graph, w: Word, L: int) -> bool:
    """Does ``h`` embed in the word graph of the length-L prefix of ``w``?
    (:func:`subsets_in_word_age`, the full vertex set.)"""
    return (1 << h.n) - 1 in subsets_in_word_age(h, w, L)


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

    One pass of :func:`subsets_in_word_age`, which goes by vertex orders,
    not by the patterns and canonical forms that made the certificate.
    """
    found = subsets_in_word_age(cert.graph, w, L)
    full = (1 << cert.graph.n) - 1
    return full not in found and all(full ^ (1 << v) in found
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
