"""Age enumeration, age inclusion, bound certificates, and the Jónsson-style
desk check for prime members.

An age approximation holds, per size up to ``k_max``, the exact isomorphism
classes of induced subgraphs of one finite source graph, not the graph
itself.  There are two routes to it.

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

The Jónsson desk check reads the prime members of a word-graph age off the
distinct factors, with no walk (:func:`_prime_age`): every prime sits on a
window, the word graph of its factor (the first letter flipped after a gap)
up to a swap of its first two vertices, so a level reads one normal form
per window.  Whether a form is prime is a proved rule on the form
(:func:`_prime_form`), with no module search and no graph built, and a
prime form is keyed by itself, up to two proved merges (:func:`_prime_key`),
not by canonical labelling, so the check alone runs past the canonical
search's cap.  Containment is read off the same keyed windows: a host's
members are its own class and those of its three windows one order down,
each a window of the word too, so no host is read again.  No word route
builds the prefix graph.

Everything about an infinite age is reported at a finite scale and says so:
a bound certificate records the prefix length at which the non-membership
search failed.  Prefix graphs are nested, so a certificate is a bound on an
interval of prefix lengths, from where its last one-vertex deletion appears
to just before the graph itself appears, and that interval may end at any
length past the recorded one: a bound of a finite prefix need not be a
bound of the word.  One walk by vertex orders (:func:`bound_scales`) reads
the interval up to any scale, so one walk re-validates a certificate at
every scale given.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .graph6 import to_graph6
from .graphs import (
    CORE_WIDTH,
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
)
from .wordgraph import _prefix_bits, letter_masks
from .words import Word, factor_last_starts


@dataclass
class AgeApprox:
    """Exact induced-subgraph classes of the source ``source_desc`` names, up
    to size ``k_max`` (all of them, or the prime ones of a prime age)."""

    source_desc: str
    k_max: int
    levels: dict[int, dict[CanonKey, Graph]]

    def keys(self, size: int) -> set[CanonKey]:
        return set(self.levels.get(size, {}))

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


def _check_order(order: int, k_max: int) -> None:
    if not 0 <= k_max <= order:
        raise GraphError("k_max must be nonnegative" if k_max < 0
                         else "k_max exceeds the source order")


def _start_levels(order: int, k_max: int) -> dict[int, dict[CanonKey, Graph]]:
    """Level 0, the empty graph, of an age of an ``order``-vertex source.
    Every member is canonically keyed, so no age reaches past CORE_WIDTH."""
    if k_max > CORE_WIDTH:
        raise GraphError(f"k_max {k_max} exceeds {CORE_WIDTH}, the canonical key's cap")
    _check_order(order, k_max)
    return {0: {canonical_key(Graph(0, ())): Graph(0, ())}}


def age_enumerate(source: Graph, k_max: int, source_desc: str = "graph") -> AgeApprox:
    """Level-by-level :func:`~wordgraphs.graphs.extend_level`, filtered by the
    deletion check (deletion keys are far cheaper than the search) and an
    embedding search into ``source``."""
    levels = _start_levels(source.n, k_max)
    for k in range(k_max):
        below = levels[k]
        levels[k + 1] = {key: g for key, g in extend_level(below.values()).items()
                         if _deletion_keys(g, below) is not None
                         and embeds(g, source)}
    return AgeApprox(source_desc=source_desc, k_max=k_max, levels=levels)


def missing_member(a: AgeApprox, b: AgeApprox) -> Graph | None:
    """A least member of ``a`` that ``b`` lacks, or None if every member of
    ``a`` is one of ``b``: inclusion at a's scale."""
    if a.k_max > b.k_max:
        raise GraphError("inclusion check needs b enumerated at least as far as a")
    for size in sorted(a.levels):
        for key, member in a.levels[size].items():
            if key not in b.levels.get(size, {}):
                return member
    return None


# -- word-graph ages by gapped-factor patterns ----------------------------------


def _moves(ends: int, pos: tuple[int, int]) -> list[tuple[int, int, int]]:
    """The moves that append one vertex to a pattern ending at ``ends``.

    This is the move rule of the prefix graph, and its only owner.  The new
    vertex takes an index with letter c (``pos[c]``, from
    :func:`~wordgraphs.wordgraph.letter_masks`) one past an end (an adjacent
    move) or at least two past the lowest end (a gap move).  A letter 0
    sees every earlier vertex and a letter 1 none, except that an adjacent
    move flips the last one.  Each move is ``(base, flip, reach)``.  The
    new vertex's row into the earlier vertices ``seen``, of which vertex
    ``last`` is the last, is ``(base & seen) ^ (flip << last)``: all but
    the last, all, only the last, or none.  ``reach`` is the mask of indices
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
    """Age of the word graph at prefix ``L``, by the pattern walk: no search."""
    pos = letter_masks(w, L)
    levels = _start_levels(L + 1, k_max)
    vertex = _trusted(1, (0,))
    vertex_key = canonical_key(vertex)
    forms = {vertex_key: vertex}
    # one vertex ends anywhere in 0..L
    states = {(vertex_key, 0): pos[0] | pos[1] | 1}
    for k in range(1, k_max + 1):
        if k > 1:
            states, forms = _extend_patterns(states, pos, forms)
        levels[k] = dict(sorted(forms.items()))
    return AgeApprox(source_desc=json.dumps({"word_prefix": L}), k_max=k_max,
                     levels=levels)


def _forms(f: str, gap: bool) -> tuple[str, ...]:
    """The normal forms of the windows over the factor ``f`` (see
    :func:`_prime_age`): the interval window's, u[0] + "0" + u[2:] for
    u = f, and if ``gap`` the gap window's, for u = f with f[0] flipped.
    An empty factor has one window, a single vertex.  The one owner of the
    normal-form rule."""
    rest = "0" + f[2:] if len(f) > 1 else ""
    heads = (f[:1], "1" if f[0] == "0" else "0") if gap and f else (f[:1],)
    return tuple(head + rest for head in heads)


def _window_forms(w: Word, L: int, k_max: int) -> list[set[str]]:
    """Per order k = 1..k_max, the normal forms of the windows over each
    length-(k - 1) factor; the gap window needs a start of the factor >= 1."""
    # the empty factor starts at every index 0..L
    return [{u for f, last in starts.items() for u in _forms(f, last > 0)} for starts in
            ([{"": L}] + factor_last_starts(w, L, max(k_max - 1, 0)))[:k_max]]


def _drops(u: str) -> tuple[str, ...]:
    """The normal forms of the windows one order down of the word graph of
    the normal form ``u``: drop its last, first or second vertex (the drop
    lemma of :func:`jonsson_desk_check`).  A single vertex has none."""
    return (u[:-1], *_forms(u[1:], True)) if u else ()


def _prime_form(u: str) -> bool:
    """Whether the word graph of the window form ``u`` is prime: iff
    len(u) < 2, or t = u[2:] is neither y^m nor y^(m - 2) + u[0] + y, for y
    the flip of u[0] and m = len(t).  So order k = len(u) + 1 <= 2 is prime
    (the convention of :func:`~wordgraphs.primes.is_prime`), order 3 never
    (t is empty), order 4 except (0, "1") and (1, "0"), and order k >= 5
    except (0, 1^m), (0, 1^(m-2)01), (1, 0^m) and (1, 0^(m-2)10).

    Proof, for any u of n - 1 >= 2 letters, as flipping u[1] keeps the
    class (the swap of :func:`_prime_age`).  At n = 3 some vertex sees both
    others or neither, as three degrees of 1 cannot sum to an even number,
    and the other two are a module.  Let n >= 4, number the vertices by
    index 0..n-1, and let a_j = u[j - 1] be the letter at index j >= 1: for
    i < j, j sees i iff a_j = 1 and i = j - 1, or a_j = 0 and i <= j - 2.
    Flipping every letter complements the graph, which keeps its modules,
    and flips u[0] and t alike, which keeps the rule, so let a_(n-1) = 1.
    Let M be a nontrivial module, 2 <= |M| < n.

    (1) M holds n - 1: else for p = max M, p + 1 lies outside M and sees
    p iff a_(p+1) = 1, but every smaller member of M iff a_(p+1) = 0.
    (2) As a_(n-1) = 1, n - 1 sees n - 2 alone, so every vertex outside M
    but n - 2 sees none of M, and n - 2, if outside, all of it.
    (3) A vertex p that sees no vertex below it has p <= 1, as p >= 2
    sees p - 1 or p - 2, and a_1 = 0 if p = 1.
    (4) If n - 2 is in M, let j <= n - 3 be the largest index outside it.
    As j sees none of M, a_(j+1) = 0 and every later letter is 1; then
    every i < j sees j + 1, so lies in M.  So M is all but j, j sees
    nothing, and by (3) j <= 1 and a_1 = 0: u = 0x1^m for a letter x, and
    t = y^m.
    (5) Else n - 2 sees all of M; let p = max(M - {n - 1}).  If p = n - 3,
    then a_(n-2) = 1, so n - 2 sees nothing below p and M = {p, n - 1}.
    Each vertex below p lies outside M, so does not see p, and by (3)
    p <= 1: n = 4, a_1 = 0, u = 011 and t = y^m.  If p <= n - 4, then
    p + 1 lies outside M and does not see p, so a_(p+1) = 0, it sees every
    vertex below p, and M = {p, n - 1}; n - 2 sees p, so a_(n-2) = 0; each
    index from p + 2 to n - 3 does not see p, so its letter is 1; and by
    (3) p <= 1 and a_1 = 0.  So at n >= 5, u = 0x1^(n-5)01 and
    t = y^(m-2)0y, and at n = 4, p = 0, u = 001 and t = y^m.

    Conversely, both patterns end in y, so a_(n-1) = 1 gives u[0] = 0;
    take u[1] = 0.  In u = 001^m no vertex sees index 1, as a_1 = a_2 = 0
    and every later letter is 1, so all but index 1 is a module.  In
    u = 001^(m-2)01, m >= 2, {1, n - 1} is a module: n - 2 sees both, as
    a_(n-2) = 0 and 1 <= n - 4, and no other vertex sees either, as
    a_1 = a_2 = 0, the letters at 3..n - 3 are 1 and n - 1 sees n - 2
    alone.
    """
    y = "1" if u[:1] == "0" else "0"
    m = len(u) - 2
    return m < 0 or u[2:] not in (y * m, y * (m - 2) + u[:1] + y)


def _prime_key(u: str) -> str:
    """The key of the class of the word graph of the prime window form
    ``u``: u itself, but (1, s01) goes to (0, s10) for a constant word s,
    and 101 to 000.  So with m = len(u) - 2 >= 2, (1, 0^(m-1)1) goes to
    (0, 0^(m-2)10) and (1, 1^(m-2)01) to (0, 1^(m-1)0), both send 1001 to
    0010, and two prime forms of one order have isomorphic graphs iff they
    have the same key: 2^(k-2) - 6 classes at each order k >= 6.

    Proof.  Call an order v_0..v_(n-1) of a graph's vertices a word order
    spelling b if each v_j, j >= 1, sees among v_0..v_(j-1) exactly
    v_(j-1) (b_j = 1) or exactly v_0..v_(j-2) (b_j = 0).  Then i -> v_i
    maps the word graph of b onto the graph, so the forms of a class are
    the normal forms (b_1, b_3..b_(n-1)) of the word orders of any one of
    its graphs.  Number the vertices and letters as in :func:`_prime_form`.
    Swapping vertices 0 and 1 flips a_2 alone and keeps every form (the
    swap of :func:`_prime_age`).  Flipping every letter complements the
    graph and every word its orders spell, and maps the forms of each pair
    onto those of the other pair.

    If: at n >= 5, in the word graph of 01^(n-3)0, of the form
    (0, 1^(m-1)0), the order 1, 2, ..., n - 1, 0 spells 1^(n-3)01, of the
    form (1, 1^(m-2)01).  Complementing gives the other pair.  At n = 4
    both prime forms, 000 and 101, are the path P4.

    Only if: below n = 4 the prime forms "", 0 and 1 are three graphs.  At
    n >= 4 the last vertex of a word order fixes its form.  For j >= 3,
    v_j has degree 1 or j - 1 >= 2 in the graph on v_0..v_j, which gives
    b_j and makes v_(j-1) its one neighbour or non-neighbour there, so
    v_(n-1) fixes v_(n-2), ..., v_2 and b_3..b_(n-1), and b_1 is whether
    the two left are adjacent.  So a second form in the class of G(u)
    needs a word order of G(u) that ends at a vertex q < n - 1, as 0..n-1
    spells u, and q has degree 1 or n - 2.  At n = 5 the prime forms 1011,
    0010, 1001 and 0000 have 4, 5, 5 and 6 edges.  Let n >= 6, and by
    complementing let q have degree 1.  Vertex i sees below it i - 1 if
    a_i = 1, else 0..i-2: none iff i = 0, or i = 1 and a_1 = 0, and one
    iff a_i = 1 or i = 2.  Above it, it sees i + 1 iff a_(i+1) = 1, and
    each j >= i + 2 with a_j = 0.
    (a) If q sees nothing below, swap so that q = 0.  If a_1 = 1, then
    a_j = 1 for all j, G(u) is a path, and the order n - 1, ..., 0 ends
    at 0 and spells u.  Else one r >= 2 has a_r = 0 and is q's neighbour,
    so r comes next and has degree 1 or n - 3 in G - 0, the word graph of
    u[1:] on 1..n-1.  There r has degree r - 2 + [r <= n - 2], so r = 2
    or r = n - 2, where u is not prime, or r = n - 1: u = 01^(n-3)0, the
    form of "If".
    (b) Else q sees one vertex below and none above: a_(q+1) = 0 and
    a_j = 1 for j >= q + 2.  Swap so that a_q = 1.  Then p = q - 1 comes
    next.  In G - q it sees its vertices below and q + 1 alone above, so
    its degree there is 1, which needs p = 0, or p = 1 and a_1 = 0, or
    n - 3, which needs p = n - 3 and a_p = 0.  At p = 0, u = 101^(n-3), a
    path up to the swap, as in (a).  At p = 1, u = 0101^(n-4); 1's
    neighbour in G - 2 is 3, and in the path 0, 3, 4, ..., n - 1 that is
    left, 3 has degree 2, which is 1 or n - 4 only at n = 6, where the
    order 0, 4, 5, 3, 1, 2 spells u itself.  At p = n - 3, q = n - 2, and
    n - 1 sees all of G - {n - 3, n - 2}, the word graph of a_1..a_(n-4)
    and n - 1; p's non-neighbour n - 4 comes next.  Down j = n - 4, ...,
    3, the graph left has j + 2 vertices, j has degree 1 + its degree
    below, which is 1 or j iff a_j = 0, and its non-neighbour j - 1 comes
    next.  Then 2 has degree 2, and its non-neighbour sees n - 1, so must
    see nothing else of the last three: a_1 = 0.  So u = 0^(n-3)10 up to
    the swap, of the form (0, 0^(m-2)10), and 0, n - 1, 1, 2, ..., n - 2
    spells 110^(n-4)1, of the form (1, 0^(m-1)1): the complement of "If".
    So a prime form's class holds the form alone, or it and its partner.
    """
    if len(u) >= 4 and u[:2] == "10" and u[-2:] == "01" and len(set(u[2:-2])) < 2:
        return "00" + u[2:-2] + "10"
    return "000" if u == "101" else u


def _prime_age(w: Word, L: int, k_max: int) -> tuple[
        dict[int, set[str]], dict[str, str | None]]:
    """The prime members of :func:`word_age`, read off the word's distinct
    factors: per order 0..``k_max`` the set of their classes' keys, and the
    key of every window form, None if its graph is not prime by the rule of
    :func:`_prime_form`.  A prime's key is its form up to the two merges of
    :func:`_prime_key`, proved to name its class, so no class is
    canonically labelled and no graph is built; the empty graph's key is
    "-", as the single vertex's form is "".

    Window lemma: a prime induced subgraph of order k >= 3 of the prefix
    graph sits on an interval of k consecutive indices, or on one index, a
    gap, and an interval of k - 1 consecutive indices.  Proof: if its indices
    have a gap, let P be the chosen vertices before the last gap.  Every
    later chosen vertex t is at least two indices past all of P, so it sees
    all of P (letter 0 at t) or none of it (letter 1), and P is a module.
    It is not the whole set, so by primality it is one vertex.  Graphs of
    order <= 2 are prime by convention, and every one of them is a window:
    a pair of indices is consecutive or has a gap.

    A window of order k is fixed by its shape and the factor f of length
    k - 1 at its last k - 1 indices (a pair is decided by its larger index).
    On an interval it is the word graph of u = f, its first index playing
    vertex -1.  After a gap, which needs a start of f >= 1, it is the word
    graph of u = f with f[0] flipped: the lone index sees the next one iff
    f[0] = 0, as they are not consecutive, and every later one as vertex -1
    does.  Swapping vertices -1 and 0 of u's word graph flips u[1]: vertex 1
    sees -1 iff u[1] = 0 and 0 iff u[1] = 1, and every later vertex sees the
    two alike.  So a window is isomorphic to the word graph of u[0] + "0" +
    u[2:], and a level keys one such graph per normal form (u[0], u[2:]), at
    most 2 p(k - 3) of them (p the factor complexity), read off
    :func:`~wordgraphs.words.factor_last_starts`.
    """
    _prefix_bits(w, L)  # a bad prefix length is the word graph's error
    _check_order(L + 1, k_max)
    levels: dict[int, set[str]] = {0: {"-"}}
    key_of: dict[str, str | None] = {}
    for k, forms in enumerate(_window_forms(w, L, k_max), 1):
        for u in forms:
            key_of[u] = _prime_key(u) if _prime_form(u) else None
        levels[k] = {key_of[u] for u in forms} - {None}
    return levels, key_of


def subsets_in_word_age(h: Graph, w: Word, L: int) -> dict[int, int]:
    """The vertex masks S of ``h`` such that h[S] embeds in the word graph
    of the length-L prefix of ``w``, each with the least prefix length
    t <= L at which it does.

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

    One walk answers every scale up to L.  The prefix-t graph is the
    prefix-L graph induced on indices 0..t, so an embedding lies in it iff
    its last index is at most t, and end masks are exact sets of last
    indices: h[S] embeds at scale t <= L iff the lowest end over S's states
    is at most t.  So ``{S : least[S] <= t}`` is this function at scale t.
    """
    pos = letter_masks(w, L)
    rows, full = h.rows, (1 << h.n) - 1
    # one vertex ends at any index 0..L
    states = {(1 << v, v): pos[0] | pos[1] | 1 for v in range(h.n)}
    least = {0: 0}
    moves: dict[int, list[tuple[int, int, int]]] = {}  # ends -> _moves
    sees_all, sees_none = {0: full}, {0: full}  # placed set -> vertex mask
    while states:
        nxt: dict[tuple[int, int], int] = {}
        for (used, last), ends in states.items():
            # the lowest end index: the least scale of this state's orders
            at = (ends & -ends).bit_length() - 1
            if least.get(used, L + 1) > at:
                least[used] = at
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
    return least


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


def bound_scales(cert: BoundCertificate, w: Word, L: int) -> range:
    """The prefix lengths t <= L at which ``cert`` is a bound: every
    deletion embeds and the graph does not.

    Prefix graphs are nested, so this is an interval: it starts where the
    last deletion appears and ends just before the graph does.  The graph's
    own least length, where it is at most L, is the interval's ``stop``.
    One pass of :func:`subsets_in_word_age`, which goes by vertex orders,
    not by the patterns and canonical forms that made the certificate.
    """
    least = subsets_in_word_age(cert.graph, w, L)
    full = (1 << cert.graph.n) - 1
    start = max((least.get(full ^ (1 << v), L + 1) for v in range(cert.graph.n)),
                default=0)
    return range(start, least.get(full, L + 1))


def validate_bound_certificate(cert: BoundCertificate, w: Word, *scales: int) -> bool:
    """Re-check from scratch at every one of ``scales``: deletions embed, the
    graph does not.  One walk, at the largest scale, answers all of them
    (:func:`bound_scales`)."""
    interval = bound_scales(cert, w, max(scales))
    return all(s in interval for s in scales)


# -- Joensson desk check ------------------------------------------------------------


@dataclass
class JonssonReport:
    """Finite-scale evidence only; never a minimality verdict."""

    level_counts: dict[int, int]
    cofinality: dict[int, int | None]
    degenerate: bool = False


def jonsson_desk_check(w: Word, L: int, k_max: int, n_max: int = 5) -> JonssonReport:
    """Per-level counts of the prime members of :func:`word_age`, and the
    cofinality table m(n): the least m such that every member of order at
    most n embeds in every member of order at least m, within the
    approximation (None if no m at the scale works).  An ``n_max`` above
    ``k_max`` is a :class:`GraphError`: the table covers only the orders the
    age reached.  The members are keyed by their window forms
    (:func:`_prime_age`), so unlike ``word_age`` the check takes any
    ``k_max`` up to the source order.

    Containment is read off the word's own keyed windows, with no embedding
    search and no second read of any factor.  Drop lemma: let u be the
    normal form of a window W of order j + 1 of the word, over the factor
    f, on indices t0 < t1 < ... < tj.  The word graph of u has exactly three
    windows of order j: less its last vertex it is the word graph of
    u[:-1], less its first that of u[1:], and less its second the gap
    window over u[1:] (leaving out any later vertex leaves two or more
    before a gap).  Their normal forms (:func:`_drops`) are u[:-1] and x +
    "0" + u[3:] for x = 0 and 1, and each is a window form of the word at
    order j: W less tj is a window of W's shape over f[:-1], with the form
    u[:-1]; W less t0 is the interval window over f[1:], and W less t1 has
    the graph of the gap window over f[1:], as a pair two or more indices
    apart is decided by its later letter, so their forms are x + "0" +
    f[3:], and f[3:] = u[3:].  A smaller window of u grows one index at a
    time into one of the three.  So by the window lemma applied to u's word
    graph, its prime members are its own class, if prime, and those of its
    three drops, every one of them keyed by :func:`_prime_age`.

    Each prime of order 1..``n_max`` gets one bit, and a host's members are
    a mask over those bits, built up the orders; the empty graph lies in
    every host, and the empty host holds nothing else.  ``common[m]`` is
    the AND of the masks of the prime hosts of order m, so a member s has
    m_s = 1 + the largest m whose ``common[m]`` lacks s (0 if none does),
    and m(n) is the largest m_s over orders up to n.
    """
    if n_max > k_max:  # m(n) only for sizes the age reached
        raise GraphError(f"n_max {n_max} exceeds k_max {k_max}")
    levels, key_of = _prime_age(w, L, k_max)
    # no prime has order 3, so only an age reaching size 4 can show its
    # members stopping at size 2
    degenerate = k_max >= 4 and not any(levels[k] for k in range(3, k_max + 1))
    # one bit per prime of order 1..n_max; the empty
    # graph lies in every host, and the empty host holds nothing else
    bit = {key: 1 << i for i, key in enumerate(
        key for n in range(1, n_max + 1) for key in levels[n])}
    members: dict[str, int] = {}
    common = {0: 0}
    # key_of goes up the orders, so a form's drops come before it
    for u, key in key_of.items():
        members[u] = bit.get(key, 0)
        for v in _drops(u):
            members[u] |= members[v]
        if key is not None:
            common[len(u) + 1] = common.get(len(u) + 1, -1) & members[u]
    cofinality: dict[int, int | None] = {}
    need = 0  # the bits of the members of order at most n
    for n in range(n_max + 1):
        need |= sum(bit.get(key, 0) for key in levels[n])
        worst = max((m + 1 for m, mask in common.items() if need & ~mask), default=0)
        cofinality[n] = worst if worst <= k_max else None
    return JonssonReport(level_counts={k: len(keys) for k, keys in levels.items()},
                         cofinality=cofinality, degenerate=degenerate)


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
        "prime_only": True,
        "level_counts": {str(k): v for k, v in report.level_counts.items()},
        "cofinality": {str(k): v for k, v in report.cofinality.items()},
        "degenerate": report.degenerate,
        "note": "prime members stop at size 2; degenerate case"
                if report.degenerate else "",
    }
