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
from .errors import BudgetError, GraphError, check_budget
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


# -- the defining predicate and subset scans ------------------------------------


def _equalizer_masks(g: Graph) -> list[int]:
    """``B(u, v) | {u, v}`` for every pair: the sets a distance-equalizer
    set must meet."""
    return [mask | 1 << u | 1 << v for u, v, mask in g.bisector_masks]


def _min_hitting_subset(n: int, masks: list[int]) -> tuple[int, frozenset[int]]:
    """Smallest subset of ``0..n-1`` meeting every mask, the lexicographically
    first of its size because subsets of each size are visited in
    lexicographic order.  Every mask must be nonzero."""
    # Order and duplicates do not change the answer; small masks first make
    # a failing subset fail sooner.
    masks = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            smask = 0
            for x in combo:
                smask |= 1 << x
            if all(m & smask for m in masks):
                return size, frozenset(combo)
    raise AssertionError("the full vertex set meets every nonzero mask; unreachable")


def is_distance_equalizer(g: Graph, s) -> bool:
    """True iff every pair of distinct vertices outside ``s`` has a member
    of ``s`` equidistant from both."""
    g.require_connected()
    smask = g.mask(s)
    return all(hit & smask for hit in _equalizer_masks(g))


def xi_bruteforce(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Exact equidistant dimension by subset scan in increasing size, with
    the lexicographically smallest minimum set as witness."""
    check_budget(g.n, max_order, MAX_BRUTE_ORDER)
    g.require_connected()
    return EquidimResult(*_min_hitting_subset(g.n, _equalizer_masks(g)))


def xi_total(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Minimum set equalizing every pair of vertices, or the infinite
    sentinel when some bisector is empty (the empty bisector graph has an
    edge)."""
    check_budget(g.n, max_order, MAX_BRUTE_ORDER)
    g.require_connected()
    masks = [mask for _, _, mask in g.bisector_masks]
    if not all(masks):
        return EquidimResult(INFINITE, None)
    return EquidimResult(*_min_hitting_subset(g.n, masks))


# -- forward-equalized machinery ----------------------------------------------


def forward_equalized(g: Graph, pair: ForwardPair) -> bool:
    """True iff every (u, v) in (X-Y) x (Y-X) has a witness w with
    d(w, u) = d(w, v) + 1."""
    g.require_connected()
    xmask = g.mask(pair.x)
    ymask = g.mask(pair.y)
    full = (1 << g.n) - 1
    if xmask | ymask != full:
        raise GraphError("the two sets must jointly cover every vertex")
    fw = g.forward_masks
    only_y = ymask & ~xmask
    for u in _bits(xmask & ~ymask):
        if only_y & ~fw[u]:
            return False
    return True


def _mandatory(fw: tuple[int, ...], umask: int, outside: int) -> int:
    mandatory = 0
    for x in _bits(umask):
        if outside & ~fw[x]:
            mandatory |= 1 << x
    return mandatory


def mandatory_set(g: Graph, u) -> frozenset[int]:
    """Vertices of ``u`` that any valid second set must also contain, given
    that it already holds everything outside ``u``.

    A member x of ``u`` is mandatory when some outside vertex v admits no w
    with d(w, x) = d(w, v) + 1.
    """
    g.require_connected()
    umask = g.mask(u)
    outside = ((1 << g.n) - 1) & ~umask
    return frozenset(_bits(_mandatory(g.forward_masks, umask, outside)))


# -- corona product computations ------------------------------------------------


def _best_split(g: Graph, n_h: int) -> tuple[int, int, int]:
    """``(cost, U, L)`` as masks: the first split in stream order minimizing
    ``cost = |U| * n_h + |L|``.

    U ranges over the vertex covers of the empty bisector graph and L is
    (V minus U) plus t(U) vertices of U: the smallest cover of the empty
    bisector graph inside U that holds the mandatory vertices of U.  Covers
    stream in nondecreasing size, so the first optimum found realizes the
    tie-break (smallest |U|, then lexicographic U, then lexicographic L).
    """
    n = g.n
    adj = empty_bisector_graph(g).graph.adjacency_bits
    full = (1 << n) - 1
    beta = covers.min_cover_size(adj, full)
    floor = n + beta * (n_h - 1)
    fw = g.forward_masks

    best: tuple[int, int, int] | None = None
    for size, umask in covers.iter_cover_masks(adj, n, n):
        base = size * n_h + (n - size)
        if best is not None and base >= best[0]:
            break
        outside = full & ~umask
        mandatory = _mandatory(fw, umask, outside)
        sub_adj = tuple(adj[v] & umask for v in range(n))
        t = mandatory.bit_count() + covers.min_cover_size(sub_adj, umask & ~mandatory)
        cost = base + t
        if best is None or cost < best[0]:
            tmask = covers.lexmin_cover(sub_adj, umask, mandatory, t)
            best = (cost, umask, outside | tmask)
            if cost == floor:
                break
    assert best is not None, "the pair (any cover, all vertices) is always valid"
    return best


@lru_cache(maxsize=4096)
def xi_corona_structured(
    g: Graph, n_h: int, max_order: int | None = None
) -> EquidimResult:
    """Exact corona dimension for any copy graph of order ``n_h``, computed
    on the base graph alone: the minimum of ``|U| * n_h + |L|`` over the
    valid splits (U, L), with full copies over U and L in the base.
    """
    if not isinstance(n_h, int) or n_h < 1:
        raise GraphError(f"copy order must be a positive integer, got {n_h!r}")
    check_budget(g.n, max_order, covers.MAX_EXACT_ORDER)
    g.require_connected()
    n = g.n
    cost, umask, lmask = _best_split(g, n_h)
    upper = frozenset(_bits(umask))
    lower = frozenset(_bits(lmask))
    witness = set(lower)
    for i in upper:
        witness.update(n + i * n_h + j for j in range(n_h))
    return EquidimResult(cost, frozenset(witness), (upper, lower), n_h)


def xi_corona_oracle(g: Graph, h: Graph, max_order: int | None = None) -> EquidimResult:
    """Exact corona dimension by subset scan on the explicit product graph."""
    order = g.n * (1 + h.n)
    check_budget(order, max_order, MAX_ORACLE_ORDER)
    g.require_connected()
    product = corona(g, h).product
    inner = xi_bruteforce(product, max_order=order)
    return EquidimResult(inner.value, inner.witness, None, h.n)


@lru_cache(maxsize=4096)
def beta_star(g: Graph, max_order: int | None = None) -> covers.CoverResult:
    """Minimum overlap ``|U & L|`` over pairs of vertex covers of the empty
    bisector graph that jointly cover all vertices and admit the step-ahead
    witnesses.

    The overlap of a split is t(U), so this is the corona search at
    ``n_h = 1``, whose cost is n + t(U).  It may visit every cover, hence
    the tighter default budget.
    """
    check_budget(g.n, max_order, MAX_BETA_STAR_ORDER)
    g.require_connected()
    cost, umask, lmask = _best_split(g, 1)
    upper = frozenset(_bits(umask))
    lower = frozenset(_bits(lmask))
    return covers.CoverResult(cost - g.n, upper & lower, (upper, lower))


def k_threshold(g: Graph, max_order: int | None = None) -> ThresholdLine:
    """Slope, intercept and validity threshold of the eventual line
    ``xi = slope * n(H) + k``.

    The exact threshold needs the overlap minimum; when that is over budget
    the independence number of the empty bisector graph is used instead,
    which is always at least the exact threshold.
    """
    check_budget(g.n, max_order, covers.MAX_EXACT_ORDER)
    g.require_connected()
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

