"""Exact vertex cover, independence and clique numbers, constrained covers,
and bounded enumeration of vertex covers.

All solvers work on bitmask adjacency rows and are exact.  Witnesses are
tie-broken to the lexicographically smallest vertex set (compared as sorted
tuples) among all optimal solutions, so results are reproducible.  Instances
above :data:`MAX_EXACT_ORDER` vertices are rejected rather than searched
unboundedly.

One branching search, :func:`_covers_of_size`, lists the covers of one size
in lexicographic order.  The cover stream :func:`iter_cover_masks` runs it
from the matching lower bound up, :func:`lexmin_cover` takes its first
cover, and :func:`min_cover_size` tries it at that bound before branching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import GraphError, check_budget
from .graphs import Graph, _bits

#: Hard cap on the order accepted by the exact solvers.
MAX_EXACT_ORDER = 28


@dataclass(frozen=True)
class CoverResult:
    """An optimal value plus a witness set achieving it.

    ``pair`` is populated only by the forward-overlap minimization, which
    records the two covers whose intersection is the witness.
    """

    value: int
    witness: frozenset[int]
    pair: tuple[frozenset[int], frozenset[int]] | None = None


# -- bitmask core -------------------------------------------------------------


def _matching_lower_bound(adj: tuple[int, ...], active: int) -> int:
    # Greedy maximal matching: each matched edge forces one cover vertex.
    bound = 0
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        nb = adj[low.bit_length() - 1] & rest
        if nb:
            rest ^= nb & -nb
            bound += 1
    return bound


def _covers_of_size(adj: tuple[int, ...], active: int, size: int) -> Iterator[int]:
    """The covers with ``size`` vertices (at most ``|active|``) of the
    subgraph on ``active``, in lexicographic order as sorted tuples.

    A depth-first search decides the vertices in ascending order, "take v"
    before "leave v out", which forces v's higher neighbours in.  A branch
    is cut once taken and forced vertices outnumber ``size``, or once the
    undecided ones cannot reach it, so the work follows the covers.
    """
    bits, higher, rest = [], [], active
    while rest:
        bit = rest & -rest
        rest ^= bit
        bits.append(bit)
        higher.append(adj[bit.bit_length() - 1] & rest)
    m = len(bits)
    # Open "leave v out" branches: (index of v, taken, len(taken), forced).
    stack = [(0, 0, 0, 0)]
    while stack:
        i, taken, count, forced = stack.pop()
        while i < m:
            bit = bits[i]
            if forced & bit:
                taken |= bit
                forced ^= bit
                count += 1
                i += 1
                continue
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
                stack.append((i + 1, taken, count, left))
            taken |= bit
            count += 1
            i += 1
        else:
            yield taken


def min_cover_size(adj: tuple[int, ...], active: int) -> int:
    """Exact minimum vertex cover size of the subgraph induced on ``active``;
    ``adj`` is read only inside ``active``.

    Branch and bound: branch on a highest-degree vertex (take it, or take
    its whole neighborhood), after exhausting the pendant-edge reduction.
    At the root, a cover at the greedy matching bound ends the search.
    """
    best = active.bit_count()

    def search(act: int, acc: int, root: bool = False) -> None:
        nonlocal best
        # Pendant reduction: a degree-1 vertex is never needed, its neighbor is.
        reduced = True
        while reduced:
            reduced = False
            for v in _bits(act):
                nb = adj[v] & act
                if nb == 0:
                    act &= ~(1 << v)
                elif nb & (nb - 1) == 0:
                    acc += 1
                    act &= ~((1 << v) | nb)
                    reduced = True
                    break
        bound = _matching_lower_bound(adj, act)
        if acc + bound >= best:
            return
        if not any(adj[v] & act for v in _bits(act)):
            best = min(best, acc)
            return
        if root and next(_covers_of_size(adj, act, bound), -1) >= 0:
            best = acc + bound  # a cover at the matching bound is optimal
            return
        v = max(_bits(act), key=lambda x: (adj[x] & act).bit_count())
        nb = adj[v] & act
        search(act & ~(1 << v), acc + 1)
        search(act & ~((1 << v) | nb), acc + nb.bit_count())

    search(active, 0, root=True)
    return best


def lexmin_cover(adj: tuple[int, ...], universe: int, forced: int, size: int) -> int:
    """Lexicographically smallest cover of the ``universe`` subgraph that
    contains ``forced`` and has exactly ``size`` vertices (one must exist);
    ``adj`` is read only inside ``universe``.

    Two sets sharing ``forced`` compare as their remaining parts do, so
    this is ``forced`` plus the first cover of the rest of that size.
    """
    return forced | next(_covers_of_size(adj, universe & ~forced, size - forced.bit_count()))


def max_clique_size(adj: tuple[int, ...], candidates: int) -> int:
    """Exact maximum clique size within ``candidates`` (pivoting search)."""
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if cand == 0:
            best = max(best, size)
            return
        if size + cand.bit_count() <= best:
            return
        pivot = max(_bits(cand), key=lambda x: (adj[x] & cand).bit_count())
        rest = cand & ~adj[pivot]
        for v in _bits(rest):
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, candidates)
    return best


# -- public operations --------------------------------------------------------


def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    """True iff every edge of ``g`` has an endpoint in ``s``."""
    mask = g.mask(s)
    return all(mask >> u & 1 or mask >> v & 1 for u, v in g.edges)


def vertex_cover_number(g: Graph, max_order: int | None = None) -> CoverResult:
    """Exact minimum vertex cover with the lexicographically smallest witness."""
    check_budget(g.n, max_order, MAX_EXACT_ORDER)
    full = (1 << g.n) - 1
    size = min_cover_size(g.adjacency_bits, full)
    witness = lexmin_cover(g.adjacency_bits, full, 0, size)
    return CoverResult(size, frozenset(_bits(witness)))


def independence_number(g: Graph, max_order: int | None = None) -> CoverResult:
    """Maximum independent set, as order minus the vertex cover number.

    The witness is the complement of the cover witness and is re-validated
    directly against the adjacency before being returned.
    """
    cover = vertex_cover_number(g, max_order)
    witness = frozenset(range(g.n)) - cover.witness
    mask = g.mask(witness)
    if any(g.adjacency_bits[v] & mask for v in witness):
        raise AssertionError("cover complement is not independent; solver bug")
    return CoverResult(g.n - cover.value, witness)


def clique_number(g: Graph, max_order: int | None = None) -> CoverResult:
    """Exact maximum clique with the lexicographically smallest witness."""
    check_budget(g.n, max_order, MAX_EXACT_ORDER)
    adj = g.adjacency_bits
    full = (1 << g.n) - 1
    size = max_clique_size(adj, full)
    fixed = 0
    cand = full
    while fixed.bit_count() < size:
        for v in _bits(cand):
            if fixed.bit_count() + 1 + max_clique_size(adj, cand & adj[v]) == size:
                fixed |= 1 << v
                cand &= adj[v]
                break
        else:
            raise AssertionError("no extension of a partial maximum clique; solver bug")
    return CoverResult(size, frozenset(_bits(fixed)))


def min_cover_containing(
    g: Graph,
    forced: Iterable[int],
    restrict_to: Iterable[int],
    max_order: int | None = None,
) -> CoverResult:
    """Minimum vertex cover of the subgraph induced on ``restrict_to`` among
    covers containing ``forced``.

    Always feasible: ``restrict_to`` itself covers its induced subgraph.
    """
    check_budget(g.n, max_order, MAX_EXACT_ORDER)
    forced_mask = g.mask(forced)
    restrict_mask = g.mask(restrict_to)
    if forced_mask & ~restrict_mask:
        raise GraphError("forced vertices must lie inside the restriction set")
    adj = g.adjacency_bits
    size = forced_mask.bit_count() + min_cover_size(adj, restrict_mask & ~forced_mask)
    witness = lexmin_cover(adj, restrict_mask, forced_mask, size)
    return CoverResult(size, frozenset(_bits(witness)))


def enumerate_vertex_covers(g: Graph, max_size: int) -> Iterator[frozenset[int]]:
    """Yield every vertex cover of size at most ``max_size`` exactly once,
    in nondecreasing size and lexicographic order within each size."""
    if not 0 <= max_size <= g.n:
        raise GraphError(f"max_size must lie in 0..{g.n}, got {max_size}")
    check_budget(g.n, None, MAX_EXACT_ORDER)
    for size, mask in iter_cover_masks(g.adjacency_bits, g.n, max_size):
        yield frozenset(_bits(mask))


def iter_cover_masks(
    adj: tuple[int, ...], n: int, max_size: int
) -> Iterator[tuple[int, int]]:
    """Stream ``(size, mask)`` for every vertex cover of at most ``max_size``
    vertices: sizes nondecreasing, covers of one size in lexicographic order
    (as sorted tuples, the order of ``itertools.combinations``), each cover
    exactly once.

    Sizes start at the matching lower bound; each is one :func:`_covers_of_size`.
    """
    full = (1 << n) - 1
    for size in range(_matching_lower_bound(adj, full), min(max_size, n) + 1):
        for mask in _covers_of_size(adj, full, size):
            yield size, mask
