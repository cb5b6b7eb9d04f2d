"""Immutable simple graphs with cached all-pairs distances and the
per-graph tables derived from them (pair bisector masks, forward masks, the
empty bisector graph's adjacency and cover number), plus the corona and
join constructions.

Vertices are always the integers ``0 .. n-1`` internally.  A graph may carry
external vertex labels (for instance the 1-indexed names used in input
files); labels never affect any computation, only display.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .errors import GraphError

#: Sentinel distance for unreachable vertex pairs.
INFINITY = float("inf")


class Graph:
    """Undirected simple graph, immutable after construction.

    Edges are deduplicated and stored sorted as ``(u, v)`` with ``u < v``.
    Self-loops and out-of-range endpoints are rejected.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[Hashable] | None = None,
    ):
        if not isinstance(n, int) or n < 1:
            raise GraphError(f"graph order must be a positive integer, got {n!r}")
        seen: set[tuple[int, int]] = set()
        for pair in edges:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {pair!r} has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            seen.add((min(u, v), max(u, v)))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise GraphError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise GraphError("vertex labels must be distinct")
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self.labels = labels
        masks = [0] * n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.adjacency_bits: tuple[int, ...] = tuple(masks)

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        mask = self.adjacency_bits[v]
        return tuple(u for u in range(self.n) if mask >> u & 1)

    def degree(self, v: int) -> int:
        return self.adjacency_bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency_bits[u] >> v & 1)

    def label_of(self, v: int) -> Hashable:
        return self.labels[v] if self.labels is not None else v

    def index_of(self, label: Hashable) -> int:
        if self.labels is None:
            if isinstance(label, int) and 0 <= label < self.n:
                return label
            raise GraphError(f"unknown vertex label {label!r}")
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    # -- cached global structure --------------------------------------------

    @cached_property
    def distances(self) -> tuple[tuple[int | float, ...], ...]:
        """All-pairs shortest path lengths (BFS per source).

        Entries for unreachable pairs are :data:`INFINITY`.  Computed once
        and cached; every downstream module reads this matrix.
        """
        rows = []
        for source in range(self.n):
            dist: list[int | float] = [INFINITY] * self.n
            dist[source] = 0
            queue = deque([source])
            while queue:
                u = queue.popleft()
                du = dist[u]
                mask = self.adjacency_bits[u]
                while mask:
                    v = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    if dist[v] is INFINITY:
                        dist[v] = du + 1
                        queue.append(v)
            rows.append(tuple(dist))
        return tuple(rows)

    def distance(self, u: int, v: int) -> int | float:
        return self.distances[u][v]

    @cached_property
    def is_connected(self) -> bool:
        """True iff one BFS from vertex 0 reaches every vertex."""
        return INFINITY not in self.distances[0]

    def require_connected(self) -> None:
        """Raise :class:`GraphError` unless the graph is connected."""
        if not self.is_connected:
            raise GraphError("operation requires a connected graph")

    def mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of a vertex set; rejects vertices outside ``0..n-1``."""
        mask = 0
        for v in vertices:
            if not 0 <= v < self.n:
                raise GraphError(f"vertex {v} outside 0..{self.n - 1}")
            mask |= 1 << v
        return mask

    @cached_property
    def _distance_layers(self) -> tuple[list[int], ...]:
        # layers[u][d] is the bitmask of the vertices at distance d from u.
        self.require_connected()
        layers = []
        for row in self.distances:
            layer = [0] * (max(row) + 1)
            for w, d in enumerate(row):
                layer[d] |= 1 << w
            layers.append(layer)
        return tuple(layers)

    @cached_property
    def bisector_masks(self) -> tuple[tuple[int, int, int], ...]:
        """``(u, v, mask)`` for every pair u < v, where ``mask`` holds the
        vertices equidistant from u and v; the empty bisector graph joins
        exactly the pairs whose mask is 0.  Connected graphs only."""
        layers = self._distance_layers
        out = []
        for u in range(self.n):
            lu = layers[u]
            for v in range(u + 1, self.n):
                mask = 0
                for at_u, at_v in zip(lu, layers[v]):
                    mask |= at_u & at_v
                out.append((u, v, mask))
        return tuple(out)

    @cached_property
    def forward_masks(self) -> tuple[int, ...]:
        """``masks[x]`` has bit v set iff some w has d(w, x) = d(w, v) + 1.
        Connected graphs only."""
        layers = self._distance_layers
        dist = self.distances
        out = []
        for x in range(self.n):
            mask = 0
            for w in range(self.n):
                d = dist[w][x]
                if d:
                    mask |= layers[w][d - 1]
            out.append(mask)
        return tuple(out)

    @cached_property
    def ghat_beta(self) -> tuple[tuple[int, ...], int]:
        """The adjacency rows of the empty bisector graph Ĝ and its vertex
        cover number β(Ĝ), which every corona computation on this graph
        reads.  Connected graphs only.

        Only the rows are kept: holding the Ĝ ``Graph`` (and its edge
        tuples) on every graph made the slowest corona-ladder requests of
        ``perfbench`` about 8% slower on a shared 2-vCPU host.
        """
        from . import bisectors, covers  # both import this module

        adj = bisectors.empty_bisector_graph(self).graph.adjacency_bits
        return adj, covers.min_cover_size(adj, (1 << self.n) - 1)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees and eccentricities, with their extrema."""

    degrees: tuple[int, ...]
    max_degree: int
    min_degree: int
    eccentricities: tuple[int, ...]
    diameter: int
    radius: int


def degree_profile(g: Graph) -> DegreeProfile:
    """Degrees, eccentricities, diameter and radius of a connected graph.

    Eccentricities are undefined on disconnected graphs, so those are
    rejected outright.
    """
    if not g.is_connected:
        raise GraphError("degree profile requires a connected graph")
    degrees = tuple(g.degree(v) for v in range(g.n))
    eccs = tuple(max(row) for row in g.distances)
    return DegreeProfile(
        degrees=degrees,
        max_degree=max(degrees),
        min_degree=min(degrees),
        eccentricities=eccs,
        diameter=max(eccs),
        radius=min(eccs),
    )


class CoronaGraph:
    """Corona product: the base graph plus one copy of ``copy`` per base
    vertex, each copy joined completely to its base vertex.

    Layout is pure arithmetic: base vertex ``i`` sits at product index ``i``
    and vertex ``j`` of the i-th copy at ``n(base) + i * n(copy) + j``.
    """

    def __init__(self, base: Graph, copy: Graph):
        ng, nh = base.n, copy.n
        edges: list[tuple[int, int]] = list(base.edges)
        for i in range(ng):
            off = ng + i * nh
            edges.extend((off + a, off + b) for a, b in copy.edges)
            edges.extend((i, off + j) for j in range(nh))
        self.base = base
        self.copy = copy
        self.product = Graph(ng * (1 + nh), edges)

    def base_vertex(self, i: int) -> int:
        return i

    def copy_vertex(self, i: int, j: int) -> int:
        return self.base.n + i * self.copy.n + j

    def kind(self, v: int) -> tuple:
        """Classify a product vertex as ``("base", i)`` or ``("copy", i, j)``."""
        ng, nh = self.base.n, self.copy.n
        if not 0 <= v < self.product.n:
            raise GraphError(f"vertex {v} outside the corona product")
        if v < ng:
            return ("base", v)
        i, j = divmod(v - ng, nh)
        return ("copy", i, j)

    def lower_projection(self, s: Iterable[int]) -> frozenset[int]:
        """Base vertices of the product that belong to ``s``."""
        return frozenset(v for v in s if v < self.base.n)

    def upper_projection(self, s: Iterable[int]) -> frozenset[int]:
        """Base vertices whose attached copy meets ``s``."""
        ng, nh = self.base.n, self.copy.n
        return frozenset((v - ng) // nh for v in s if v >= ng)


def corona(g: Graph, h: Graph) -> CoronaGraph:
    """Corona product of ``g`` and ``h``."""
    return CoronaGraph(g, h)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of ``g1`` and ``g2`` plus every cross edge."""
    n1 = g1.n
    edges = list(g1.edges)
    edges.extend((n1 + a, n1 + b) for a, b in g2.edges)
    edges.extend((u, n1 + v) for u in range(n1) for v in range(g2.n))
    return Graph(n1 + g2.n, edges)
