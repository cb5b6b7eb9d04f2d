"""Distance-equalizer sets, the equidistant dimension, and its corona-product
computation through the empty bisector graph.

The structured corona solver never touches the (possibly huge) product
graph.  For a connected base graph of order at least 2, a minimum
distance-equalizer set of the product can always be chosen as "full copies
over U, plus L in the base", where U and L are vertex covers of the empty
bisector graph, U union L is the whole vertex set, and (U, L) admits a
step-ahead witness for every pair in (U minus L) x (L minus U).  For a fixed
U the cheapest valid L is (V minus U) plus a minimum cover T of the part of
the empty bisector graph inside U, subject to T containing the vertices of U
that are forced into L; so the search is a stream over covers U with one
small exact subproblem each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from . import covers
from .bisectors import empty_bisector_graph
from .errors import BudgetError, GraphError
from .graphs import Graph, corona

#: Order cap for the subset-scan searches on a single graph.
MAX_BRUTE_ORDER = 18
#: Order cap for the explicit corona product accepted by the oracle.
MAX_ORACLE_ORDER = 14
#: Default order cap for the forward-overlap minimization, which may have to
#: visit every vertex cover of the empty bisector graph.
MAX_BETA_STAR_ORDER = 16

#: Sentinel value of the total variant when no finite set exists.
INFINITE = math.inf

_bits = covers._bits


@dataclass(frozen=True)
class ForwardPair:
    """A pair of vertex sets (x, y) with ``x | y`` covering all vertices."""

    x: frozenset[int]
    y: frozenset[int]


@dataclass(frozen=True)
class EquidimResult:
    """An equidistant dimension value with its witness.

    ``witness`` lives in whichever graph the operation was asked about (the
    graph itself, or the corona product in canonical layout).  The corona
    solver additionally reports its ``(U, L)`` decomposition over the base
    vertex set and the copy order ``n_h`` it used.  ``value`` is
    :data:`INFINITE` exactly when the total variant admits no finite set,
    in which case ``witness`` is ``None``.
    """

    value: int | float
    witness: frozenset[int] | None
    decomposition: tuple[frozenset[int], frozenset[int]] | None = None
    n_h: int | None = None


class ThresholdLine(NamedTuple):
    """Eventual line ``slope * n(H) + k`` of the corona dimension, valid for
    every copy order strictly above ``threshold``."""

    k: int
    threshold: int
    slope: int
    threshold_bound: str  # "exact" or "independence-only"


# -- cached per-graph precomputations -----------------------------------------


@lru_cache(maxsize=None)
def _pair_bisector_masks(g: Graph) -> tuple[tuple[int, int, int], ...]:
    """For every pair u < v, the bitmask of vertices equidistant from both."""
    dist = g.distances
    n = g.n
    out = []
    for u in range(n):
        du = dist[u]
        for v in range(u + 1, n):
            dv = dist[v]
            mask = 0
            for w in range(n):
                if du[w] == dv[w]:
                    mask |= 1 << w
            out.append((u, v, mask))
    return tuple(out)


@lru_cache(maxsize=None)
def _forward_masks(g: Graph) -> tuple[int, ...]:
    """``masks[x]`` has bit v set iff some w satisfies d(w,x) = d(w,v) + 1."""
    dist = g.distances
    n = g.n
    out = []
    for x in range(n):
        mask = 0
        for v in range(n):
            if any(dist[w][x] == dist[w][v] + 1 for w in range(n)):
                mask |= 1 << v
        out.append(mask)
    return tuple(out)


# -- the defining predicate and brute-force searches ---------------------------


def is_distance_equalizer(g: Graph, s) -> bool:
    """True iff every pair of distinct vertices outside ``s`` has a member
    of ``s`` equidistant from both."""
    _require_connected(g)
    smask = _as_mask(g, s)
    for u, v, bmask in _pair_bisector_masks(g):
        if not (smask >> u & 1 or smask >> v & 1 or bmask & smask):
            return False
    return True


def xi_bruteforce(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Exact equidistant dimension by subset scan in increasing size.

    The witness is the lexicographically smallest minimum set because
    subsets of each size are visited in lexicographic order.
    """
    _require_connected(g)
    _check_budget(g.n, max_order, MAX_BRUTE_ORDER)
    pairs = _pair_bisector_masks(g)
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            smask = 0
            for x in combo:
                smask |= 1 << x
            if all(
                smask >> u & 1 or smask >> v & 1 or bmask & smask
                for u, v, bmask in pairs
            ):
                return EquidimResult(size, frozenset(combo))
    raise AssertionError("the full vertex set always equalizes; unreachable")


def xi_total(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Minimum set equalizing every pair of vertices, or the infinite
    sentinel when the empty bisector graph has an edge."""
    _require_connected(g)
    _check_budget(g.n, max_order, MAX_BRUTE_ORDER)
    if empty_bisector_graph(g).graph.m > 0:
        return EquidimResult(INFINITE, None)
    pairs = _pair_bisector_masks(g)
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            smask = 0
            for x in combo:
                smask |= 1 << x
            if all(bmask & smask for _, _, bmask in pairs):
                return EquidimResult(size, frozenset(combo))
    raise AssertionError("an edgeless empty bisector graph admits a finite set")


# -- forward-equalized machinery ----------------------------------------------


def forward_equalized(g: Graph, pair: ForwardPair) -> bool:
    """True iff every (u, v) in (X-Y) x (Y-X) has a witness w with
    d(w, u) = d(w, v) + 1."""
    _require_connected(g)
    xmask = _as_mask(g, pair.x)
    ymask = _as_mask(g, pair.y)
    full = (1 << g.n) - 1
    if xmask | ymask != full:
        raise GraphError("the two sets must jointly cover every vertex")
    fw = _forward_masks(g)
    only_y = ymask & ~xmask
    for u in _bits(xmask & ~ymask):
        if only_y & ~fw[u]:
            return False
    return True


def mandatory_set(g: Graph, u) -> frozenset[int]:
    """Vertices of ``u`` that any valid second set must also contain, given
    that it already holds everything outside ``u``.

    A member x of ``u`` is mandatory when some outside vertex v admits no w
    with d(w, x) = d(w, v) + 1.
    """
    _require_connected(g)
    umask = _as_mask(g, u)
    outside = ((1 << g.n) - 1) & ~umask
    fw = _forward_masks(g)
    return frozenset(x for x in _bits(umask) if outside & ~fw[x])


# -- corona product computations ------------------------------------------------


@lru_cache(maxsize=None)
def xi_corona_structured(
    g: Graph, n_h: int, max_order: int | None = None
) -> EquidimResult:
    """Exact corona dimension for any copy graph of order ``n_h``, computed
    on the base graph alone.

    Minimizes ``|U| * n_h + (n - |U|) + t(U)`` over vertex covers U of the
    empty bisector graph, where t(U) is the smallest cover of its part
    inside U that contains the mandatory vertices of U.  Covers stream in
    nondecreasing size, so the first optimum found realizes the tie-break
    (smallest |U|, then lexicographic U, then lexicographic L).
    """
    if not isinstance(n_h, int) or n_h < 1:
        raise GraphError(f"copy order must be a positive integer, got {n_h!r}")
    _require_connected(g)
    _check_budget(g.n, max_order, covers.MAX_EXACT_ORDER)
    n = g.n
    if n == 1:
        return EquidimResult(1, frozenset({0}), (frozenset(), frozenset({0})), n_h)
    if n == 2:
        witness = frozenset({1}) | frozenset(2 + j for j in range(n_h))
        return EquidimResult(n_h + 1, witness, (frozenset({0}), frozenset({1})), n_h)

    ghat = empty_bisector_graph(g).graph
    adj = ghat.adjacency_bits
    full = (1 << n) - 1
    beta = covers.min_cover_size(adj, full)
    floor = max(n, beta * n_h + (n - beta))
    fw = _forward_masks(g)

    best: tuple[int, int, int] | None = None  # (cost, umask, lmask)
    for size, umask in covers.iter_cover_masks(adj, n, n):
        base = size * n_h + (n - size)
        if best is not None and base >= best[0]:
            break
        outside = full & ~umask
        mandatory = 0
        for x in _bits(umask):
            if outside & ~fw[x]:
                mandatory |= 1 << x
        sub_adj = tuple(adj[v] & umask for v in range(n))
        t = mandatory.bit_count() + covers.min_cover_size(sub_adj, umask & ~mandatory)
        cost = base + t
        if best is None or cost < best[0]:
            tmask = covers.lexmin_cover(sub_adj, umask, mandatory, t)
            best = (cost, umask, outside | tmask)
            if cost == floor:
                break

    assert best is not None, "the pair (any cover, all vertices) is always valid"
    cost, umask, lmask = best
    upper = frozenset(_bits(umask))
    lower = frozenset(_bits(lmask))
    witness = set(lower)
    for i in upper:
        witness.update(n + i * n_h + j for j in range(n_h))
    return EquidimResult(cost, frozenset(witness), (upper, lower), n_h)


def xi_corona_oracle(g: Graph, h: Graph, max_order: int | None = None) -> EquidimResult:
    """Exact corona dimension by subset scan on the explicit product graph."""
    _require_connected(g)
    order = g.n * (1 + h.n)
    _check_budget(order, max_order, MAX_ORACLE_ORDER)
    product = corona(g, h).product
    inner = xi_bruteforce(product, max_order=order)
    return EquidimResult(inner.value, inner.witness, None, h.n)


@lru_cache(maxsize=None)
def beta_star(g: Graph, max_order: int | None = None) -> covers.CoverResult:
    """Minimum overlap ``|U & L|`` over pairs of vertex covers of the empty
    bisector graph that jointly cover all vertices and admit the step-ahead
    witnesses.

    For fixed U the overlap is exactly t(U) from the structured search, so
    this is a full sweep of the cover stream keeping the smallest t.  May
    visit every cover, hence the tighter default budget.
    """
    _require_connected(g)
    _check_budget(g.n, max_order, MAX_BETA_STAR_ORDER)
    n = g.n
    ghat = empty_bisector_graph(g).graph
    adj = ghat.adjacency_bits
    full = (1 << n) - 1
    fw = _forward_masks(g)

    best: tuple[int, int, int] | None = None  # (t, umask, tmask)
    for _, umask in covers.iter_cover_masks(adj, n, n):
        outside = full & ~umask
        mandatory = 0
        for x in _bits(umask):
            if outside & ~fw[x]:
                mandatory |= 1 << x
        sub_adj = tuple(adj[v] & umask for v in range(n))
        t = mandatory.bit_count() + covers.min_cover_size(sub_adj, umask & ~mandatory)
        if best is None or t < best[0]:
            tmask = covers.lexmin_cover(sub_adj, umask, mandatory, t)
            best = (t, umask, tmask)
            if t == 0:
                break

    value, umask, tmask = best
    upper = frozenset(_bits(umask))
    lower = frozenset(_bits((full & ~umask) | tmask))
    return covers.CoverResult(value, frozenset(_bits(tmask)), (upper, lower))


def k_threshold(g: Graph, max_order: int | None = None) -> ThresholdLine:
    """Slope, intercept and validity threshold of the eventual line
    ``xi = slope * n(H) + k``.

    The exact threshold needs the overlap minimum; when that is over budget
    the independence number of the empty bisector graph is used instead,
    which is always at least the exact threshold.
    """
    _require_connected(g)
    _check_budget(g.n, max_order, covers.MAX_EXACT_ORDER)
    ghat = empty_bisector_graph(g).graph
    full = (1 << g.n) - 1
    beta = covers.min_cover_size(ghat.adjacency_bits, full)
    alpha = g.n - beta
    overlap = 0
    try:
        bstar = beta_star(g, max_order)
        overlap = bstar.value
        threshold = min(alpha, beta - overlap + 1)
        bound = "exact"
    except BudgetError:
        threshold = alpha
        bound = "independence-only"
    slope = beta
    probe = xi_corona_structured(g, threshold + 1, max_order)
    k = probe.value - slope * (threshold + 1)
    if not alpha + overlap <= k <= g.n:
        raise AssertionError(
            f"intercept {k} escapes its proven range [{alpha + overlap}, {g.n}]"
        )
    return ThresholdLine(k, threshold, slope, bound)


# -- shared helpers -------------------------------------------------------------


def _as_mask(g: Graph, s) -> int:
    mask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} outside 0..{g.n - 1}")
        mask |= 1 << v
    return mask


def _require_connected(g: Graph) -> None:
    if not g.is_connected:
        raise GraphError("operation requires a connected graph")


def _check_budget(order: int, max_order: int | None, default_cap: int) -> None:
    # A caller's max_order may lower the default cap, never raise it.
    cap = default_cap if max_order is None else min(max_order, default_cap)
    if order > cap:
        raise BudgetError(f"exact search out of budget: order {order} exceeds cap {cap}")
