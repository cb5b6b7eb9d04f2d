"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written from the definitions, with no
imports from the package under test: Floyd-Warshall instead of BFS,
subset scans instead of branch and bound, and an explicit corona
construction instead of the arithmetic layout.

:func:`forward_and_ghat_from_layers` is a reference rather than an oracle:
the walk over distance layers that the package's one-pass forward-mask and
Ĝ-row BFS replaced, kept to check that pass against.  It walks the layers
that :func:`distance_layers` reads off Floyd-Warshall.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

INF = math.inf


def floyd_warshall(n, edges):
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik is INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def is_connected(n, edges):
    return all(d is not INF for d in floyd_warshall(n, edges)[0])


def min_vertex_cover(n, edges):
    """Smallest cover, first hit in size-then-lexicographic subset order."""
    edge_list = list(edges)
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edge_list):
                return k, set(combo)
    raise AssertionError("unreachable: the full vertex set is a cover")


@lru_cache(maxsize=None)
def _subsets_in_scan_order(universe):
    """Bitmasks of the subsets of the sorted tuple ``universe``, by size and
    then lexicographically, the order of ``itertools.combinations``."""
    return tuple(
        sum(1 << v for v in combo)
        for k in range(len(universe) + 1)
        for combo in combinations(universe, k)
    )


def min_cover_within(edges, universe, forced=0):
    """``(size, mask)`` of the smallest subset of ``universe`` that holds
    ``forced`` and covers every edge with both ends in ``universe`` (the
    sets are bitmasks): the first hit of the size-then-lexicographic subset
    scan."""
    inner = tuple(
        1 << u | 1 << v for u, v in edges if universe >> u & 1 and universe >> v & 1
    )
    members = tuple(v for v in range(universe.bit_length()) if universe >> v & 1)
    chosen = _first_cover(inner, members, forced)
    return chosen.bit_count(), chosen


@lru_cache(maxsize=4096)
def _first_cover(inner, universe, forced):
    # Keyed by the edges inside the universe, so graphs that agree there
    # share one scan.
    for chosen in _subsets_in_scan_order(universe):
        if chosen & forced == forced and all(edge & chosen for edge in inner):
            return chosen
    raise AssertionError("unreachable: the universe covers its own edges")


def cover_stream(n, edges, max_size):
    """Every vertex cover of at most ``max_size`` vertices as ``(size, mask)``,
    by subset scan in size-then-lexicographic order."""
    edge_list = list(edges)
    out = []
    for k in range(min(max_size, n) + 1):
        for combo in combinations(range(n), k):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edge_list):
                out.append((k, sum(1 << v for v in combo)))
    return out


def max_independent_set_size(n, edges):
    best = 0
    for k in range(n, 0, -1):
        for combo in combinations(range(n), k):
            chosen = set(combo)
            if all(not (u in chosen and v in chosen) for u, v in edges):
                return k
    return best


def max_clique(n, edges):
    """The largest clique as ``(size, mask)``: the first of that size in
    ``itertools.combinations`` order, i.e. lexicographically smallest."""
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    for k in range(n, 0, -1):
        for combo, chosen in _combinations_with_masks(n, k):
            if all(closed[v] & chosen == chosen for v in combo):
                return k, chosen
    return 0, 0


@lru_cache(maxsize=None)
def _combinations_with_masks(n, k):
    return tuple((combo, sum(1 << v for v in combo)) for combo in combinations(range(n), k))


def bisector_set(dist, u, v):
    return {w for w in range(len(dist)) if dist[w][u] == dist[w][v]}


def empty_bisector_edges(n, edges):
    dist = floyd_warshall(n, edges)
    return {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not bisector_set(dist, u, v)
    }


@lru_cache(maxsize=1)
def _pair_bisectors(n, edges):
    # One entry: xi and xi_total of the same graph share the work.
    dist = floyd_warshall(n, edges)
    return [
        (u, v, bisector_set(dist, u, v))
        for u in range(n)
        for v in range(u + 1, n)
    ]


def min_hitting_set(n, masks):
    """Smallest subset of ``range(n)`` meeting every mask (bitmasks), and the
    first of that size in ``itertools.combinations`` order."""
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            chosen = sum(1 << v for v in combo)
            if all(mask & chosen for mask in masks):
                return k, set(combo)
    raise AssertionError("unreachable: the full set meets every nonzero mask")


def xi(n, edges):
    """Equidistant dimension by definition-level subset scan, with the
    first minimum set of the size-then-lexicographic order as witness."""
    pairs = _pair_bisectors(n, tuple(edges))
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            chosen = set(combo)
            if all(
                u in chosen or v in chosen or (b & chosen)
                for u, v, b in pairs
            ):
                return k, chosen
    raise AssertionError("unreachable")


def xi_total(n, edges):
    """Total equidistant dimension and the first minimum set of the scan,
    or ``(INF, None)`` when some bisector is empty."""
    pairs = _pair_bisectors(n, tuple(edges))
    if any(not b for _, _, b in pairs):
        return INF, None
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            chosen = set(combo)
            if all(b & chosen for _, _, b in pairs):
                return k, chosen
    raise AssertionError("unreachable")


def forward_equalized(n, edges, x, y):
    return _step_ahead(floyd_warshall(n, edges), set(x) - set(y), set(y) - set(x))


def _step_ahead(dist, xs, ys):
    """Every (u, v) in ``xs`` x ``ys`` has a w with d(w, u) = d(w, v) + 1."""
    n = len(dist)
    return all(any(dist[w][u] == dist[w][v] + 1 for w in range(n)) for u in xs for v in ys)


def corona_edges(ng, g_edges, nh, h_edges):
    """Corona product built literally: copy i occupies indices
    ng + i*nh .. ng + (i+1)*nh - 1."""
    edges = list(g_edges)
    for i in range(ng):
        off = ng + i * nh
        edges.extend((off + a, off + b) for a, b in h_edges)
        edges.extend((i, off + j) for j in range(nh))
    return ng * (1 + nh), edges


@lru_cache(maxsize=1)
def corona_pairs(n, edges):
    """Every pair (U, L) of covers of the empty bisector graph, as bitmasks,
    with U | L the whole vertex set and (U, L) forward-equalized; U in
    size-then-lexicographic order, and L in that order for each U.  One
    entry, so the copy orders of one graph share the scan."""
    dist = floyd_warshall(n, edges)
    ghat = [
        1 << u | 1 << v
        for u in range(n)
        for v in range(u + 1, n)
        if not bisector_set(dist, u, v)
    ]
    covers = [m for m in _subsets_in_scan_order(tuple(range(n))) if all(e & m for e in ghat)]
    full = (1 << n) - 1

    def members(mask):
        return [v for v in range(n) if mask >> v & 1]

    return [
        (x, y)
        for x in covers
        for y in covers
        if x | y == full and _step_ahead(dist, members(x & ~y), members(y & ~x))
    ]


def corona_split(n, edges, n_h):
    """``(cost, U, L)``: the first pair of :func:`corona_pairs` minimizing
    ``|U| * n_h + |L|``."""
    pairs = corona_pairs(n, tuple(edges))
    x, y = min(pairs, key=lambda p: p[0].bit_count() * n_h + p[1].bit_count())
    return x.bit_count() * n_h + y.bit_count(), x, y


def beta_star(n, edges):
    """Minimum overlap |U & L| over the pairs of :func:`corona_pairs`; only
    usable for small orders."""
    return min((x & y).bit_count() for x, y in corona_pairs(n, tuple(edges)))


def distance_layers(n, edges):
    """``layers[w][d]``: the bitmask of the vertices at distance d from w,
    for a connected graph, read off Floyd-Warshall."""
    layers = []
    for row in floyd_warshall(n, edges):
        by_distance = [0] * (max(row) + 1)
        for x, d in enumerate(row):
            by_distance[d] |= 1 << x
        layers.append(by_distance)
    return layers


def forward_and_ghat_from_layers(n, layers):
    """``(forward masks, Ĝ rows)`` of a connected graph by one walk over its
    distance layers, ``layers[w][d]`` being the bitmask of the vertices at
    distance d from w: each x in layer d of w gets layer d - 1 in its
    forward mask, and its Ĝ row is V minus the union of its n layers."""
    fw, near = [0] * n, [0] * n
    for source_layers in layers:
        prev = 0
        for layer in source_layers:
            rest = layer
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                fw[x] |= prev
                near[x] |= layer
                rest ^= low
            prev = layer
    full = (1 << n) - 1
    return tuple(fw), tuple(full & ~mask for mask in near)
