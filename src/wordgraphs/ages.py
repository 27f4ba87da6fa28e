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
form plus the new row mapped into it, classified by one canonical lookup.
Each step returns its states with the canonical forms of their classes,
and those forms, sorted by key, are the level.

Generic sources (``age_enumerate``) take the extension route, through the
census's level step :func:`~wordgraphs.graphs.extend_level` (canonical
deletion of a vertex of maximum degree).  Every member of size k+1 of a
hereditary class has a vertex of maximum degree whose deletion is a member
of size k, so it is one of the step's classes from level k; the route keeps
those whose one-vertex deletions all lie in level k and that embed in the
source.  It is also the independent oracle that the tests hold the pattern
route to.  Bounds come from the same step: a minimal non-member has all its
one-vertex deletions inside the age, in particular the deletion of a vertex
of maximum degree, so the bounds of size k are the step's classes from
level k - 1 that are not members and pass the same deletion check
(:func:`_deletion_keys`).

The prime members of a word-graph age take a third route
(``word_prime_age``): every prime sits on one of a few factor windows, so
level k's primes come from the factors of length k - 1, read off their
start masks in the one walk over the distinct factors that the word
diagnostics also read, and the rest of the age is never enumerated.

The desk check walks the members its age holds (the primes of a
``prime_only`` age) and reads the cofinality table m(n) off one walk per
member through the hosts, largest first, for every order alike: the empty
graph embeds in every host, and a single vertex misses only the empty
host, which the walk reaches last.

Everything about an infinite age is reported at a finite scale and says so:
a bound certificate records the prefix length at which the non-membership
search failed and can be re-validated from scratch at any larger scale.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .graph6 import to_graph6
from .graphs import (
    CanonKey,
    Graph,
    GraphError,
    _classify,
    _trusted,
    add_vertex,
    canonical_key,
    delete_vertex,
    embeds,
    extend_level,
    induced_subgraph,
)
from .primes import is_prime
from .wordgraph import graph_of_word, letter_masks
from .words import Word, _start_masks


@dataclass
class AgeApprox:
    """Exact induced-subgraph classes of ``source`` up to size ``k_max``,
    all of them or, where ``prime_only``, the prime ones."""

    source: Graph
    source_desc: str
    k_max: int
    levels: dict[int, dict[CanonKey, Graph]]
    prime_only: bool = False

    def keys(self, size: int) -> set[CanonKey]:
        return set(self.levels.get(size, {}))

    def members(self, size: int) -> list[Graph]:
        return list(self.levels.get(size, {}).values())

    def level_counts(self) -> dict[int, int]:
        return {size: len(self.levels[size]) for size in sorted(self.levels)}


def _deletion_keys(g: Graph,
                   below: dict[CanonKey, Graph]) -> tuple[CanonKey, ...] | None:
    """The sorted keys of ``g``'s one-vertex deletions if all of them lie in
    ``below``, else None (at the first that does not)."""
    keys = []
    for v in range(g.n):
        key = canonical_key(delete_vertex(g, v))
        if key not in below:
            return None
        keys.append(key)
    return tuple(sorted(keys))


def _start_levels(source: Graph, k_max: int) -> dict[int, dict[CanonKey, Graph]]:
    """Level 0, the empty graph, of an age of ``source`` up to size ``k_max``."""
    if k_max > source.n:
        raise GraphError("k_max exceeds the source order")
    return {0: {canonical_key(Graph(0, ())): Graph(0, ())}}


def age_enumerate(source: Graph, k_max: int, source_desc: str = "graph") -> AgeApprox:
    """Level-by-level :func:`~wordgraphs.graphs.extend_level`, filtered by the
    deletion check (deletion keys are far cheaper than the search) and an
    embedding search into ``source``."""
    levels = _start_levels(source, k_max)
    for k in range(k_max):
        below = levels[k]
        levels[k + 1] = {key: g for key, g in extend_level(below.values()).items()
                         if _deletion_keys(g, below) is not None
                         and embeds(g, source)}
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


def _extend_patterns(states: dict[tuple[CanonKey, int], int], pos: tuple[int, int],
                     forms: dict[CanonKey, Graph]
                     ) -> tuple[dict[tuple[CanonKey, int], int], dict[CanonKey, Graph]]:
    """Append one letter to every state, by each of its :func:`_moves`; the
    child states and the canonical forms of their classes.

    A state maps ``(class key, at)`` to the OR of its patterns' end masks,
    where ``at`` is the index of the patterns' last vertex in the class's
    canonical form ``forms[key]``, so the new row mapped into that form is
    the move's row with ``at`` as the last vertex.  The child's class is the
    form plus that row, and its ``at`` is where the new vertex lands in the
    child's form; the LRU of :func:`~wordgraphs.graphs._canonical_cached`
    serves every repeat of a (parent class, row) pair.
    """
    nxt: dict[tuple[CanonKey, int], int] = {}
    child_forms: dict[CanonKey, Graph] = {}
    for (key, at), ends in states.items():
        parent = forms[key]
        full = (1 << parent.n) - 1
        for base, flip, reach in _moves(ends, pos):
            child_key, order = _classify(
                add_vertex(parent, (base & full) ^ (flip << at)), child_forms)
            # the new vertex, parent.n, is the child's last vertex
            child = (child_key, order.index(parent.n))
            nxt[child] = nxt.get(child, 0) | reach
    return nxt, child_forms


def word_age(w: Word, L: int, k_max: int) -> AgeApprox:
    """Age of the word graph at prefix ``L``, enumerated without any search.

    States of level k map a class and the position of the last vertex in
    its canonical form to the bitmask of source indices where some k-vertex
    pattern with that class and last vertex can end (see
    :func:`_extend_patterns`).  A level is the canonical forms of its
    states' classes, sorted by key.
    """
    source = graph_of_word(w, L)
    levels = _start_levels(source, k_max)
    pos = letter_masks(w, L)
    vertex = _trusted(1, (0,))
    vertex_key = canonical_key(vertex)
    forms = {vertex_key: vertex}
    # one vertex ends anywhere in 0..L
    states = {(vertex_key, 0): (1 << source.n) - 1}
    for k in range(1, k_max + 1):
        if k > 1:
            states, forms = _extend_patterns(states, pos, forms)
        levels[k] = dict(sorted(forms.items()))
    return AgeApprox(source=source, source_desc=json.dumps({"word_prefix": L}),
                     k_max=k_max, levels=levels)


def word_prime_age(w: Word, L: int, k_max: int) -> AgeApprox:
    """The prime members of :func:`word_age`, read off factor windows: each
    level holds the same keys and canonical forms as word_age's level
    filtered by :func:`~wordgraphs.primes.is_prime`, and nothing else.

    Window lemma: a prime induced subgraph of order k >= 3 of the prefix
    graph sits on an interval of k consecutive indices, or on one index, a
    gap, and an interval of k - 1 consecutive indices.  Proof: if its indices
    have a gap, let P be the chosen vertices before the last gap.  Every
    later chosen vertex t is at least two indices past all of P, so it sees
    all of P (letter 0 at t) or none of it (letter 1), and P is a module.
    It is not the whole set, so by primality it is one vertex.  Graphs of
    order <= 2 are prime by convention, and every one of them is a window:
    a pair of indices is consecutive or has a gap.

    A pair is decided by the letter at its larger index and by whether the
    two indices are consecutive, so a window's graph is fixed by its shape
    and the factor of length k - 1 at its indices past the first: an
    interval of indices a..a+k-1 by the letters at a+1..a+k-1, and a vertex
    with a gap before an interval b..b+k-2 by the letters at b..b+k-2, for
    any lone vertex at least two below b (index 0 is one whenever b >= 2).
    At k = 1 both shapes are one vertex.  So a level's windows come off the
    start masks of the length-(k - 1) factors (bit s set where the factor
    starts at index s + 1): the interval a..a+k-1 from the lowest start a,
    and a gap window, b = s + 1, from the lowest start s >= 1 if there is
    one.  That is at most 2 p(k - 1) windows, p the factor complexity, off
    masks of at most p(k - 1) (L + 1) bits, no more than the source's rows.
    """
    source = graph_of_word(w, L)
    levels = _start_levels(source, k_max)
    for k, masks in zip(range(1, k_max + 1), _start_masks(w.prefix(L))):
        forms: dict[CanonKey, Graph] = {}
        for mask in masks:
            a = (mask & -mask).bit_length() - 1
            windows = [range(a, a + k)]
            if late := mask & ~1:  # the starts s >= 1
                b = (late & -late).bit_length()
                windows.append([0, *range(b, b + k - 1)])
            for vertices in windows:
                g = induced_subgraph(source, vertices)
                if is_prime(g):
                    _classify(g, forms)
        levels[k] = dict(sorted(forms.items()))
    return AgeApprox(source=source, source_desc=json.dumps({"word_prefix": L}),
                     k_max=k_max, levels=levels, prime_only=True)


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

    Candidates of size k are :func:`~wordgraphs.graphs.extend_level` of the
    members of size k - 1, less the members of size k: a bound's deletions
    all lie in the age, so deleting its vertex of maximum degree lands in a
    member class.  A candidate is a bound iff every deletion is a member
    (:func:`_deletion_keys`).  Certificates are canonical forms in the
    step's order, by (order, key), so they do not depend on which
    isomorphic candidate found them.
    """
    if L < k_max:
        raise GraphError("prefix length must be at least k_max")
    age = word_age(w, L, k_max)
    certificates: list[BoundCertificate] = []
    for k in range(1, k_max + 1):
        below = age.levels[k - 1]
        for key, cand in extend_level(below.values()).items():
            if key in age.levels[k]:
                continue
            del_keys = _deletion_keys(cand, below)
            if del_keys is not None:
                certificates.append(BoundCertificate(
                    graph=cand, key=key, deletion_keys=del_keys,
                    non_membership_scale=L))
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


def jonsson_desk_check(age: AgeApprox, n_max: int = 5) -> JonssonReport:
    """Per-level member counts plus the cofinality table m(n), over the
    members ``age`` holds (the primes where it is ``prime_only``).

    m(n) is the least m such that every member of size at most n embeds in
    every member of size at least m, within the approximation; None with a
    witness pair when no m at the scale works.
    One pass: each member s gets m_s, one more than the order of the first
    host it misses, walking the hosts from size ``k_max`` down (0 if it
    misses none), and m(n) is the largest m_s over sizes up to n.  A walk
    stops below that running maximum, where a miss cannot raise it.  The
    first member to miss a host of size ``k_max`` is the witness from then
    on.
    """
    level_counts = age.level_counts()
    # no prime has order 3, so only an age reaching size 4 can show its
    # members stopping at size 2
    degenerate = age.k_max >= 4 and max(
        (s for s, c in level_counts.items() if c), default=0) <= 2
    hosts = [h for size in sorted(age.levels, reverse=True) for h in age.members(size)]
    cofinality: dict[int, int | None] = {}
    failures: dict[int, tuple[Graph, Graph]] = {}
    worst, witness = 0, None
    for n in range(0, n_max + 1):
        for s in age.members(n):
            for h in hosts:
                if h.n < worst:
                    break
                if not embeds(s, h):
                    worst = h.n + 1
                    if worst > age.k_max:
                        witness = (s, h)
                    break
        cofinality[n] = worst if worst <= age.k_max else None
        if witness is not None:
            failures[n] = witness
    note = "prime members stop at size 2; degenerate case" if degenerate else ""
    return JonssonReport(prime_only=age.prime_only, level_counts=level_counts,
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
    return "size,member_count\n" + "".join(
        f"{size},{count}\n" for size, count in age.level_counts().items())


def bounds_to_json(certs: list[BoundCertificate]) -> list[dict]:
    return [{
        "graph6": to_graph6(c.graph),
        "key": c.key.hex(),
        "order": c.graph.n,
        "deletion_keys": [k.hex() for k in c.deletion_keys],
        "non_membership_scale": c.non_membership_scale,
    } for c in certs]


def bounds_summary_csv(certs: list[BoundCertificate]) -> str:
    by_size = Counter(c.graph.n for c in certs)
    return "size,bound_count\n" + "".join(
        f"{size},{by_size[size]}\n" for size in sorted(by_size))


def jonsson_to_json(report: JonssonReport) -> dict:
    return {
        "prime_only": report.prime_only,
        "level_counts": {str(k): v for k, v in report.level_counts.items()},
        "cofinality": {str(k): v for k, v in report.cofinality.items()},
        "degenerate": report.degenerate,
        "note": report.note,
    }
