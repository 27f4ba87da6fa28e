"""Age enumeration, age inclusion, bound certificates, antichains, and the
Jónsson-style desk check for prime members.

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
one-vertex deletions inside the age.

Everything about an infinite age is reported at a finite scale and says so:
a bound certificate records the prefix length at which the non-membership
search failed and can be re-validated from scratch at any larger scale.
"""

from __future__ import annotations

import itertools
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
    induced_subgraph,
)
from .primes import is_prime
from .wordgraph import graph_of_word
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

    def all_members(self) -> list[Graph]:
        return [g for size in sorted(self.levels) for g in self.members(size)]

    def contains(self, key: CanonKey) -> bool:
        return any(key in level for level in self.levels.values())

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


def age_enumerate_exhaustive(source: Graph, k_max: int,
                             source_desc: str = "graph") -> AgeApprox:
    """Subset-enumeration oracle; intended for sources up to 12 vertices."""
    levels: dict[int, dict[CanonKey, Graph]] = {}
    for size in range(min(k_max, source.n) + 1):
        found: dict[CanonKey, Graph] = {}
        for subset in itertools.combinations(range(source.n), size):
            sub = induced_subgraph(source, subset)
            found.setdefault(canonical_key(sub), canonical_form(sub))
        levels[size] = {key: found[key] for key in sorted(found)}
    return AgeApprox(source=source, source_desc=source_desc, k_max=k_max,
                     levels=levels)


@dataclass(frozen=True)
class InclusionResult:
    included_at_scale: bool
    k_max: int
    witness: Graph | None = None

    @property
    def verdict(self) -> str:
        return ("yes-at-scale" if self.included_at_scale
                else f"no (witness on {self.witness.n} vertices)")


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


def _extend_patterns(states: dict[tuple[int, ...], list], k: int,
                     pos: tuple[int, int],
                     forms: dict[CanonKey, Graph]) -> dict[tuple[int, ...], list]:
    """Append one letter to every k-vertex pattern, by an adjacent or a gap move.

    The new vertex k, with letter c, sees an earlier vertex p as a neighbour
    iff (c == 1) == (p == k - 1 and the move is adjacent): its row is all,
    none, only the last vertex, or all but the last.  A state maps the
    pattern's rows to ``[ends, class key, at]``, where ``at`` is the index of
    the pattern's last vertex in the class's canonical form ``forms[key]``,
    so the new row mapped into that form is all, none, only ``at`` or all
    but ``at``.  The child's class is the form plus that row: its canonical
    search depends only on the parent class and the row, and the LRU of
    :func:`_canonical_cached` serves every repeat of that pair.
    """
    full, last = (1 << k) - 1, 1 << (k - 1)
    nxt: dict[tuple[int, ...], list] = {}
    for rows, (ends, key, at) in states.items():
        above_gap = ~(((ends & -ends) << 2) - 1)  # indices >= lowest end + 2
        form = forms[key].rows
        for base, letter_pos in ((full, pos[0]), (0, pos[1])):
            for nbrs, mapped, reach in (
                    (base ^ last, base ^ (1 << at), (ends << 1) & letter_pos),
                    (base, base, letter_pos & above_gap)):
                if not reach:
                    continue
                grown = tuple(r | (((nbrs >> i) & 1) << k)
                              for i, r in enumerate(rows)) + (nbrs,)
                state = nxt.get(grown)
                if state is not None:
                    state[0] |= reach
                    continue
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
    # pos[c]: the indices t >= 1 whose letter is c; the letter at t is 1
    # exactly when the consecutive vertices t - 1 and t are adjacent
    ones = 0
    for t in range(1, source.n):
        ones |= ((source.rows[t] >> (t - 1)) & 1) << t
    pos = (((1 << source.n) - 2) ^ ones, ones)
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

    Candidates are one-vertex extensions of members (a bound's deletions all
    lie in the age, so deleting its last vertex lands in a member class).
    """
    if L < k_max:
        raise GraphError("prefix length must be at least k_max")
    age = word_age(w, L, k_max)
    certificates: list[BoundCertificate] = []
    seen: set[CanonKey] = set()
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
                deletions = [delete_vertex(cand, v) for v in range(cand.n)]
                del_keys = [canonical_key(d) for d in deletions]
                if all(dk in age.levels[k - 1] for dk in del_keys):
                    certificates.append(BoundCertificate(
                        graph=canonical_form(cand), key=key,
                        deletion_keys=tuple(sorted(del_keys)),
                        non_membership_scale=L))
    certificates.sort(key=lambda c: (c.graph.n, c.key))
    return certificates


def validate_bound_certificate(cert: BoundCertificate, w: Word, L: int) -> bool:
    """Re-check from scratch at scale L: deletions embed, the graph does not."""
    source = graph_of_word(w, L)
    if embeds(cert.graph, source):
        return False
    return all(embeds(delete_vertex(cert.graph, v), source)
               for v in range(cert.graph.n))


# -- antichains -------------------------------------------------------------------


@dataclass
class AntichainReport:
    size_window: tuple[int, int]
    members_considered: int
    antichain: list[Graph]
    pairwise_checked: bool = True


def _max_antichain(items: list[Graph]) -> list[Graph]:
    """Maximum antichain under embeddability (Dilworth via bipartite matching).

    Distinct classes of equal size never embed each other, so the strictly-
    less relation is acyclic and the matching construction applies.
    """
    n = len(items)
    less = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and items[i].n < items[j].n and embeds(items[i], items[j]):
                less[i][j] = True
    match_right: list[int | None] = [None] * n
    match_left: list[int | None] = [None] * n

    def augment(u: int, seen: list[bool]) -> bool:
        for v in range(n):
            if less[u][v] and not seen[v]:
                seen[v] = True
                if match_right[v] is None or augment(match_right[v], seen):
                    match_right[v] = u
                    match_left[u] = v
                    return True
        return False

    for u in range(n):
        augment(u, [False] * n)

    # Koenig: alternate from unmatched left vertices; the antichain is the
    # set with left copy reachable and right copy unreachable.
    reach_left = [match_left[u] is None for u in range(n)]
    reach_right = [False] * n
    frontier = [u for u in range(n) if reach_left[u]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(n):
                if less[u][v] and not reach_right[v] and match_left[u] != v:
                    reach_right[v] = True
                    w = match_right[v]
                    if w is not None and not reach_left[w]:
                        reach_left[w] = True
                        nxt.append(w)
        frontier = nxt
    return [items[i] for i in range(n) if reach_left[i] and not reach_right[i]]


def antichain_search(age: AgeApprox, min_size: int = 1,
                     max_size: int | None = None) -> AntichainReport:
    """Largest pairwise embedding-incomparable member set in a size window."""
    hi = age.k_max if max_size is None else max_size
    pool = [g for size in range(min_size, hi + 1) for g in age.members(size)]
    best = _max_antichain(pool)
    return AntichainReport(size_window=(min_size, hi),
                           members_considered=len(pool), antichain=best)


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
    """
    members = {size: [g for g in age.members(size)
                      if not prime_only or is_prime(g)]
               for size in sorted(age.levels)}
    level_counts = {size: len(gs) for size, gs in members.items()}
    top = max((s for s, c in level_counts.items() if c), default=0)
    degenerate = top <= 2
    cofinality: dict[int, int | None] = {}
    failures: dict[int, tuple[Graph, Graph]] = {}
    for n in range(0, n_max + 1):
        small = [g for size in range(n + 1) for g in members.get(size, [])]
        result: int | None = None
        for m in range(0, age.k_max + 1):
            hosts = [g for size in range(m, age.k_max + 1)
                     for g in members.get(size, [])]
            bad = next(((s, h) for h in hosts for s in small
                        if not embeds(s, h)), None)
            if bad is None:
                result = m
                break
        cofinality[n] = result
        if result is None:
            hosts = [g for size in range(age.k_max, age.k_max + 1)
                     for g in members.get(size, [])]
            bad = next(((s, h) for h in hosts for s in small
                        if not embeds(s, h)), None)
            if bad is not None:
                failures[n] = bad
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
