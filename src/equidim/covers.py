"""Exact vertex cover, independence and clique numbers, and the stream of
vertex covers in size-then-lexicographic order.

All solvers work on bitmask adjacency rows and are exact.  Witnesses are
tie-broken to the lexicographically smallest vertex set (compared as sorted
tuples) among all optimal solutions, so results are reproducible; the one
exception is the independence witness, the complement of the smallest
minimum cover, which is the lexicographically largest.  Instances
above :data:`MAX_EXACT_ORDER` vertices are rejected rather than searched
unboundedly.

One branching search, :func:`_covers_of_size`, lists the covers of one size
in lexicographic order, and every optimum here is read off it.  The cover
stream :func:`iter_cover_masks` runs it from the clique-partition lower
bound up, :func:`lexmin_cover` takes its first cover, :func:`min_cover_size`
returns the first size from that bound up that has a cover, and
:func:`clique_number` solves covers of the complement, whose independent
sets are the cliques.  Every solver in the package answers with the one
record :class:`EquidimResult`, defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import check_budget
from .graphs import Graph, _bits

#: Hard cap on the order accepted by the exact solvers.
MAX_EXACT_ORDER = 28


@dataclass(frozen=True)
class EquidimResult:
    """An optimal value with a witness set achieving it, in the graph asked
    about (a corona's in the product as :func:`~equidim.graphs.corona` lays
    it out).  ``decomposition`` is the ``(U, L)`` split over the base of the
    corona solver and ``beta_star``.  ``value`` is ``INFINITY``, and
    ``witness`` ``None``, exactly when the total variant has no finite set.
    """

    value: int | float
    witness: frozenset[int] | None
    decomposition: tuple[frozenset[int], frozenset[int]] | None = None


# -- bitmask core -------------------------------------------------------------


def _clique_lower_bound(adj: tuple[int, ...], active: int) -> int:
    # Greedy clique partition, each clique grown from its lowest vertex: a
    # cover holds all but at most one vertex of every clique.  On a
    # triangle-free graph this is the greedy maximal matching.
    bound = 0
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        common = adj[low.bit_length() - 1] & rest
        while common:
            bit = common & -common
            rest ^= bit
            common &= adj[bit.bit_length() - 1]
            bound += 1
    return bound


def _covers_of_size(
    adj: tuple[int, ...], active: int, size: int, limit: list[int] | None = None
) -> Iterator[int]:
    """The covers with ``size`` vertices (at most ``|active|``) of the
    subgraph on ``active``, in lexicographic order as sorted tuples.

    A depth-first search decides the vertices in ascending order, "take v"
    before "leave v out", which forces v's higher neighbours in.  A branch
    is cut once taken and forced vertices outnumber ``size``, or once the
    undecided ones cannot reach it, so the work follows the covers.

    ``limit``, a one-item list the caller may lower between covers, also
    cuts a branch once a greedy matching of the taken vertices has
    ``limit[0]`` edges: each cover U below it is then skipped, as every
    cover of the subgraph inside U has at least ``limit[0]`` vertices.
    """
    bits, higher, rest = [], [], active
    while rest:
        bit = rest & -rest
        rest ^= bit
        bits.append(bit)
        higher.append(adj[bit.bit_length() - 1] & rest)
    m = len(bits)
    # Open "leave v out" branches: (index of v, taken, len(taken), forced,
    # the matched taken vertices).
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, taken, count, forced, matched = stack.pop()
        # Twice the matching's cut size; 0 when no matching of at most
        # size / 2 edges can reach it.
        cut = 2 * limit[0] if limit is not None and 2 * limit[0] <= size else 0
        while i < m:
            bit = bits[i]
            if forced & bit:
                forced ^= bit
            else:
                left = forced | higher[i]
                can_leave = count + left.bit_count() <= size and count + m - i - 1 >= size
                can_take = count + 1 + forced.bit_count() <= size
                if not can_take:
                    if not can_leave:
                        break
                    forced = left
                    i += 1
                    continue
                if can_leave:
                    stack.append((i + 1, taken, count, left, matched))
            taken |= bit
            count += 1
            i += 1
            if cut:
                # Match v to its lowest unmatched taken neighbour.
                free = adj[bit.bit_length() - 1] & taken & ~matched
                if free:
                    matched |= bit | free & -free
                    if matched.bit_count() >= cut:
                        break
        else:
            yield taken


def min_cover_size(adj: tuple[int, ...], active: int) -> int:
    """Exact minimum vertex cover size of the subgraph induced on ``active``;
    ``adj`` is read only inside ``active``.

    One ascending walk drops isolated vertices and takes the neighbour of
    each degree-1 vertex (some minimum cover holds it).  The answer is then
    the first size, from the clique-partition bound up, at which
    :func:`_covers_of_size` finds a cover of what is left.
    """
    acc, rest = 0, active
    while rest:
        bit = rest & -rest
        nb = adj[bit.bit_length() - 1] & active
        if nb & (nb - 1) == 0:  # degree 0 or 1
            if nb:
                acc += 1
            active &= ~(bit | nb)
        rest = (rest ^ bit) & active
    size = _clique_lower_bound(adj, active)
    while next(_covers_of_size(adj, active, size), None) is None:
        size += 1
    return acc + size


def lexmin_cover(adj: tuple[int, ...], universe: int, forced: int, size: int) -> int:
    """Lexicographically smallest cover of the ``universe`` subgraph that
    contains ``forced`` and has exactly ``size`` vertices (one must exist);
    ``adj`` is read only inside ``universe``.

    Two sets sharing ``forced`` compare as their remaining parts do, so
    this is ``forced`` plus the first cover of the rest of that size.
    """
    return forced | next(_covers_of_size(adj, universe & ~forced, size - forced.bit_count()))


# -- public operations --------------------------------------------------------


def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    """True iff every edge of ``g`` has an endpoint in ``s``."""
    mask = g.mask(s)
    return all(mask >> u & 1 or mask >> v & 1 for u, v in g.edges)


def vertex_cover_number(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Exact minimum vertex cover with the lexicographically smallest witness."""
    check_budget(g.n, max_order, MAX_EXACT_ORDER)
    full = (1 << g.n) - 1
    size = min_cover_size(g.adjacency_bits, full)
    witness = lexmin_cover(g.adjacency_bits, full, 0, size)
    return EquidimResult(size, frozenset(_bits(witness)))


def independence_number(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Maximum independent set, as order minus the vertex cover number.

    The witness is the complement of the lex-smallest minimum cover, so it is
    the lexicographically largest maximum independent set (complements of
    one size reverse lexicographic order).  It is re-validated directly
    against the adjacency before being returned.
    """
    cover = vertex_cover_number(g, max_order)
    witness = frozenset(range(g.n)) - cover.witness
    mask = g.mask(witness)
    if any(g.adjacency_bits[v] & mask for v in witness):
        raise AssertionError("cover complement is not independent; solver bug")
    return EquidimResult(g.n - cover.value, witness)


def clique_number(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Exact maximum clique with the lexicographically smallest witness.

    A clique within ``cand`` is an independent set of the complement, so
    its largest size is ``|cand|`` minus the complement's minimum cover
    there.  The witness fixes the lowest vertex that still extends to a
    maximum clique, one vertex at a time.
    """
    check_budget(g.n, max_order, MAX_EXACT_ORDER)
    adj = g.adjacency_bits
    full = (1 << g.n) - 1
    comp = tuple(full & ~row & ~(1 << v) for v, row in enumerate(adj))

    def largest(cand: int) -> int:
        return cand.bit_count() - min_cover_size(comp, cand)

    size = largest(full)
    fixed = 0
    cand = full
    while fixed.bit_count() < size:
        for v in _bits(cand):
            if fixed.bit_count() + 1 + largest(cand & adj[v]) == size:
                fixed |= 1 << v
                cand &= adj[v]
                break
        else:
            raise AssertionError("no extension of a partial maximum clique; solver bug")
    return EquidimResult(size, frozenset(_bits(fixed)))


def iter_cover_masks(
    adj: tuple[int, ...], n: int, limit: list[int] | None = None
) -> Iterator[tuple[int, int]]:
    """Stream ``(size, mask)`` for every vertex cover: sizes nondecreasing,
    covers of one size in lexicographic order (as sorted tuples, the order
    of ``itertools.combinations``), each cover exactly once.  With
    ``limit``, the covers U whose own subgraph has a matching of
    ``limit[0]`` edges may be skipped (see :func:`_covers_of_size`).

    Sizes start at the clique-partition lower bound, below which no cover
    exists; each size is one :func:`_covers_of_size`.
    """
    full = (1 << n) - 1
    for size in range(_clique_lower_bound(adj, full), n + 1):
        for mask in _covers_of_size(adj, full, size, limit):
            yield size, mask
