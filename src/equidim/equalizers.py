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
small exact subproblem each.  One such stream per graph, the staircase,
answers every copy order, β(Ĝ) and the overlap minimum β*.  Only its few
steps are cached: a corona result, whose witness has ξ(G ⊙ H) product
vertices, is built from them on each call and never kept.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import covers
from .covers import EquidimResult
from .errors import FrozenRecord, GraphError, check_budget, check_copy_order
from .graphs import INFINITY, Graph, _bits, corona

#: Order cap for the exact hitting-set searches (ξ and ξ_total) on one graph.
MAX_BRUTE_ORDER = 18
#: Order cap for the explicit corona product accepted by the oracle.
MAX_ORACLE_ORDER = 14
#: Order cap for the corona product whose witness, a set of product
#: vertices, :func:`xi_corona_structured` builds.
MAX_PRODUCT_ORDER = 2**20


class ForwardPair(FrozenRecord):
    """A pair of vertex sets (x, y) with ``x | y`` covering all vertices."""

    x: frozenset[int]
    y: frozenset[int]

    def __init__(self, x, y):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class ThresholdLine(NamedTuple):
    """Eventual line ``slope * n(H) + k`` of the corona dimension, valid for
    every copy order strictly above ``threshold``.  The threshold is always
    exact: β* is solved at every order the cover cap accepts."""

    k: int
    threshold: int
    slope: int


# -- the defining predicate and the hitting-set search ---------------------------


def _equalizer_masks(g: Graph) -> list[int]:
    """``B(u, v) | {u, v}`` for every pair, shortest first: the sets a
    distance-equalizer set must meet, read off ``Graph.pair_masks``."""
    low = g._fold
    width = low.bit_length()
    return [mask & low | mask >> width for mask in g.pair_masks]


def _min_hitting_subset(n: int, masks: list[int]) -> tuple[int, frozenset[int]]:
    """Smallest subset of ``0..n-1`` meeting every mask, and the
    lexicographically first of its size.  Every mask must be nonzero.

    Once :func:`_min_hitting_size` has found the minimum size k, the
    witness walk decides the elements in ascending order, keeping ``known``,
    a set of size k whose elements below v are the ones taken.  v is taken
    when it is in ``known``, and left out when it meets no unhit mask
    (every member of a minimum set meets one).  Otherwise v is taken, and
    ``known`` updated, iff k - len(taken) - 1 elements above v (the room)
    meet the masks v leaves unhit, as one :func:`_min_hitting_search`
    capped at the room decides; any minimum set that search completes
    serves as ``known``.  The last ``known`` is the answer.
    """
    size, known, inc = _min_hitting_size(n, masks)
    unhit = (1 << len(masks)) - 1
    for v in range(n):
        bit = 1 << v
        if not known & bit:
            if not unhit & inc[v]:
                continue
            taken = known & (bit - 1)
            room = size - taken.bit_count() - 1
            _, found = _min_hitting_search(masks, inc, unhit & ~inc[v], 2 * bit - 1, room + 1, room)
            if found is None:
                continue
            known = taken | bit | found
        unhit &= ~inc[v]
    return size, frozenset(_bits(known))


def _min_hitting_size(n: int, masks: list[int]) -> tuple[int, int, list[int]]:
    """Sizing phase of :func:`_min_hitting_subset`: ``(k, a set of size k,
    inc)``, ``inc[v]`` holding the masks that contain v (mask i gets bit
    i).  Any mask order is correct; shortest first keeps the search small."""
    # Mask i fills bits [iW, (i+1)W) of one int joined from the masks' bytes
    # in linear time, so every W-th digit from the right is a column inc[v].
    width = (n + 7) // 8
    stride = 8 * width
    table = int.from_bytes(b"".join([mask.to_bytes(width, "little") for mask in masks]), "little")
    digits = f"{table:0{len(masks) * stride}b}"
    inc = [int(digits[stride - 1 - v :: stride] or "0", 2) for v in range(n)]
    # Pairwise-disjoint masks each need their own element.
    packed = low = 0
    for mask in masks:
        if not mask & packed:
            packed |= mask
            low += 1
    # Each element taken hits a new mask, so no set outgrows len(masks).
    size, known = _min_hitting_search(masks, inc, (1 << len(masks)) - 1, 0, len(masks) + 1, low)
    return size, known, inc


def _min_hitting_search(
    masks: list[int], inc: list[int], unhit: int, excluded: int, best: int, stop: int
) -> tuple[int, int | None]:
    """A set of elements outside ``excluded`` that meets every mask whose
    bit is set in ``unhit`` (``inc`` as in :func:`_min_hitting_size`), as
    ``(len(set), set)``: the first one found with at most ``stop``
    elements, or else the smallest with fewer than ``best``; ``(best,
    None)`` when there is none.

    A depth-first branch and bound branches on the first unhit mask, the
    shortest, {e1 < ... < er}: child i takes e_i and leaves e1 .. e(i-1) out
    for the rest of its branch.  A branch is cut once it cannot beat the
    smallest set found so far, and the search stops at the first set of at
    most ``stop`` elements.
    """
    if not unhit:
        return 0, 0
    found = None
    # Open branches: (len(taken), unhit, elements left out, taken).
    stack = [(0, unhit, excluded, 0)]
    while stack:
        count, unhit, excluded, taken = stack.pop()
        count += 1
        if count >= best:
            continue
        first = unhit & -unhit
        choices = masks[first.bit_length() - 1] & ~excluded
        # Highest element first, so that e1, which leaves nothing out, is
        # popped first.
        while choices:
            top = choices.bit_length() - 1
            choices ^= 1 << top
            left = unhit & ~inc[top]
            if not left:
                best, found = count, taken | 1 << top
                if count <= stop:
                    return best, found
                break
            if count + 1 < best:
                stack.append((count, left, excluded | choices, taken | 1 << top))
    return best, found


def is_distance_equalizer(g: Graph, s) -> bool:
    """True iff every pair of distinct vertices outside ``s`` has a member
    of ``s`` equidistant from both."""
    masks = _equalizer_masks(g)  # rejects a disconnected graph before ``s``
    smask = g.mask(s)
    return all(hit & smask for hit in masks)


def xi_bruteforce(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Exact equidistant dimension: the minimum hitting set of the sets
    ``B(u, v) | {u, v}``, with the lexicographically smallest minimum set as
    witness.  The budget check runs before the cache, which keys on ``g``
    (its order and edges): the bounds at each copy order re-read ξ(G)."""
    check_budget(g.n, max_order, MAX_BRUTE_ORDER)
    return _xi_solve(g)


@lru_cache(maxsize=4096)
def _xi_solve(g: Graph) -> EquidimResult:
    return EquidimResult(*_min_hitting_subset(g.n, _equalizer_masks(g)))


def xi_total(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Minimum set equalizing every pair of vertices, or value
    :data:`INFINITY` with no witness when some bisector is
    empty (the empty bisector graph has an edge)."""
    check_budget(g.n, max_order, MAX_BRUTE_ORDER)
    table, low = g.pair_masks, g._fold
    # Shortest first, so an empty B(u, v) would come first.
    if table and not table[0] & low:
        return EquidimResult(INFINITY, None)
    return EquidimResult(*_min_hitting_subset(g.n, [mask & low for mask in table]))


# -- forward-equalized machinery ----------------------------------------------


def forward_equalized(g: Graph, pair: ForwardPair) -> bool:
    """True iff every (u, v) in (X-Y) x (Y-X) has a witness w with
    d(w, u) = d(w, v) + 1."""
    fw = g.forward_masks  # rejects a disconnected graph before the sets
    xmask = g.mask(pair.x)
    ymask = g.mask(pair.y)
    full = (1 << g.n) - 1
    if xmask | ymask != full:
        raise GraphError("the two sets must jointly cover every vertex")
    return _mandatory(fw, xmask & ~ymask, ymask & ~xmask) == 0


def _mandatory(fw: tuple[int, ...], umask: int, outside: int) -> int:
    """The members x of ``umask`` that a valid second set must hold, given
    that it holds ``outside``: some v in ``outside`` admits no w with
    d(w, x) = d(w, v) + 1."""
    mandatory = 0
    rest = umask
    while rest:
        low = rest & -rest
        if outside & ~fw[low.bit_length() - 1]:
            mandatory |= low
        rest ^= low
    return mandatory


# -- corona product computations ------------------------------------------------


#: A staircase step ``(s, T(s), U, L)``.
_Step = tuple[int, int, frozenset[int], frozenset[int]]


@lru_cache(maxsize=4096)
def _staircase(g: Graph) -> tuple[_Step, ...]:
    """The steps ``(s, T(s), U, L)`` at which T falls below its value at
    every smaller s.

    U ranges over the vertex covers of the empty bisector graph and L is
    (V minus U) plus t(U) vertices of U: the smallest cover of the empty
    bisector graph inside U that holds the mandatory vertices of U.  T(s)
    is the least t(U) over the covers of size s, reached first at U in
    stream order, with L lexicographically first.  A split costs
    ``n + |U| * (n(H) - 1) + t(U)``, so at every copy order the first
    cheapest split in stream order is a step's.

    The stream's limit, the least t(U) so far, skips each cover U whose own
    subgraph has a matching of that size, a lower bound on t(U).
    As L is a cover, t(U) >= |U| - α(Ĝ), α(Ĝ) being n minus the size of
    the first cover; so the stream stops once that floor or 0 reaches the
    least t(U).
    """
    # The first table the search reads rejects a disconnected graph.
    n = g.n
    adj = g.ghat_rows
    full = (1 << n) - 1
    fw = g.forward_masks
    # t(U) <= n, so the first cover sets a step; a size's later step replaces it.
    limit = [n + 1]
    steps: dict[int, _Step] = {}
    for size, umask in covers.iter_cover_masks(adj, n, limit):
        if not steps:
            alpha = n - size
        elif size - alpha >= limit[0]:
            break
        outside = full & ~umask
        mandatory = _mandatory(fw, umask, outside)
        t = mandatory.bit_count() + covers.min_cover_size(adj, umask & ~mandatory)
        if t < limit[0]:
            limit[0] = t
            lmask = outside | covers.lexmin_cover(adj, umask, mandatory, t)
            steps[size] = (size, t, frozenset(_bits(umask)), frozenset(_bits(lmask)))
            if t <= max(0, size - alpha):
                break
    return tuple(steps.values())


def _steps(g: Graph, max_order: int | None) -> tuple[_Step, ...]:
    """The staircase of ``g``, after the budget check; the cache keys on
    ``g``, whose labels take no part in its identity, so every budget and
    labelling shares one entry."""
    check_budget(g.n, max_order, covers.MAX_EXACT_ORDER)
    return _staircase(g)


def _cheapest(steps: tuple[_Step, ...], n_h: int) -> tuple[int, _Step]:
    """``(|U| * (n_h - 1) + t(U), step)`` for the cheapest step at copy
    order ``n_h``, ξ(G ⊙ H) being n plus that cost.  A tie goes to the
    smaller U, streamed first."""
    costs = [size * (n_h - 1) + t for size, t, _, _ in steps]
    cost = min(costs)
    return cost, steps[costs.index(cost)]


def _corona_split(
    g: Graph, n_h: int, max_order: int | None = None
) -> tuple[int, frozenset[int], frozenset[int]]:
    """``(ξ(G ⊙ H), U, L)`` at copy order ``n_h`` off the cached staircase,
    after the copy-order and budget checks: no product vertex is built."""
    check_copy_order(n_h)
    cost, (_, _, upper, lower) = _cheapest(_steps(g, max_order), n_h)
    return g.n + cost, upper, lower


def xi_corona_structured(
    g: Graph, n_h: int, max_order: int | None = None
) -> EquidimResult:
    """Exact corona dimension for any copy graph of order ``n_h``, computed
    on the base graph alone: the minimum of ``|U| * n_h + |L|`` over the
    valid splits (U, L), with full copies over U and L in the base.

    The witness is built on each call from :func:`_corona_split`, so none
    is kept; it has ξ(G ⊙ H) product vertices.  A product of more than
    ``MAX_PRODUCT_ORDER`` vertices is rejected before any set is built.
    """
    check_copy_order(n_h)
    check_budget(g.n * (1 + n_h), None, MAX_PRODUCT_ORDER)
    value, upper, lower = _corona_split(g, n_h, max_order)
    n = g.n
    # L in the base plus the full copy over each i in U, as corona() lays it out.
    witness = lower.union(*(range(n + i * n_h, n + (i + 1) * n_h) for i in upper))
    return EquidimResult(value, witness, (upper, lower))


def xi_corona_oracle(g: Graph, h: Graph, max_order: int | None = None) -> EquidimResult:
    """Exact corona dimension by the ξ search on the explicit product graph,
    uncached: no product is asked for twice.  The witness lives in the
    product, and :func:`_oracle_value` skips it.  There is no decomposition."""
    return EquidimResult(*_min_hitting_subset(*_oracle_masks(g, h, max_order)))


def _oracle_value(g: Graph, h: Graph, max_order: int | None = None) -> int:
    """The value of :func:`xi_corona_oracle`, with no witness walk."""
    return _min_hitting_size(*_oracle_masks(g, h, max_order))[0]


def _oracle_masks(g: Graph, h: Graph, max_order: int | None) -> tuple[int, list[int]]:
    """Order and equalizer masks of ``corona(g, h)``, after the budget check."""
    check_budget(g.n * (1 + h.n), max_order, MAX_ORACLE_ORDER)
    # The product is connected iff g is, and its own table checks that.
    product = corona(g, h)
    return product.n, _equalizer_masks(product)


def beta_star(g: Graph, max_order: int | None = None) -> EquidimResult:
    """Minimum overlap ``|U & L|`` over pairs of vertex covers of the empty
    bisector graph that jointly cover all vertices and admit the step-ahead
    witnesses.

    The overlap of a split is t(U), so this is the last step of the
    cached staircase, the least T, with U & L as witness and (U, L) as the
    decomposition.
    """
    _, t, upper, lower = _steps(g, max_order)[-1]
    return EquidimResult(t, upper & lower, (upper, lower))


# Both names read and clear the one staircase cache, which
# perfbench/child.py:69 and perfbench/record.py:61,143 read through them.
xi_corona_structured.cache_info = beta_star.cache_info = _staircase.cache_info
xi_corona_structured.cache_clear = beta_star.cache_clear = _staircase.cache_clear


def ghat_stats(g: Graph, max_order: int | None = None) -> tuple[int, int]:
    """Cover and independence numbers β(Ĝ) and α(Ĝ) = n - β(Ĝ) of the empty
    bisector graph: β(Ĝ) is the size of the cached staircase's first
    step."""
    beta = _steps(g, max_order)[0][0]
    return beta, g.n - beta


def k_threshold(g: Graph, max_order: int | None = None) -> ThresholdLine:
    """Slope, intercept and validity threshold of the eventual line
    ``xi = slope * n(H) + k``: the slope is β(Ĝ), the threshold
    ``min(α(Ĝ), β(Ĝ) - β* + 1)``, and k is read off the staircase one copy
    order past the threshold."""
    steps = _steps(g, max_order)
    beta, overlap = steps[0][0], steps[-1][1]
    alpha = g.n - beta
    threshold = min(alpha, beta - overlap + 1)
    k = g.n + _cheapest(steps, threshold + 1)[0] - beta * (threshold + 1)
    if not alpha + overlap <= k <= g.n:
        raise AssertionError(
            f"intercept {k} escapes its proven range [{alpha + overlap}, {g.n}]"
        )
    return ThresholdLine(k, threshold, beta)
