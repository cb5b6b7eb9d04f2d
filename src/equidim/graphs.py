"""Immutable simple graphs with cached per-graph tables, plus the corona
product and the join, each built as a plain :class:`Graph`.

Three tables are built per graph, each by a bitset BFS from every vertex:
the pair masks, read off packed rows that hold a vertex's BFS layers in one
int, layer d in the d-th W-bit chunk (W = 8·⌈n/8⌉), so a pair's bisector
mask is one AND and one modulo 2^W − 1; the all-pairs distances, whose row
maxima are the eccentricities; and the corona tables, the forward masks and
the rows of the empty bisector graph Ĝ.  A table that needs a connected
graph rejects a disconnected one from its own BFS; ``is_connected``, one BFS
from vertex 0, serves the operations that read no such table first.

Vertices are always the integers ``0 .. n-1`` internally.  A graph may carry
external vertex labels (for instance the 1-indexed names used in input
files); labels never affect any computation, only display, so a graph is
its order and its edges: two graphs that differ only in labels are equal,
hash alike and share every solver cache entry.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import GraphError

#: Sentinel distance for unreachable vertex pairs.
INFINITY = float("inf")


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph, immutable after construction.

    Edges are deduplicated and stored sorted as ``(u, v)`` with ``u < v``.
    Self-loops, out-of-range endpoints and anything other than a pair of
    plain integers are rejected.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[Hashable] | None = None,
    ):
        if type(n) is not int or n < 1:
            raise GraphError(f"graph order must be a positive integer, got {n!r}")
        seen: set[tuple[int, int]] = set()
        for pair in edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise GraphError(f"edge {pair!r} is not a pair of vertices") from None
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"edge {pair!r} has an endpoint that is not an integer")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {pair!r} has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            seen.add((u, v) if u < v else (v, u))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise GraphError(f"expected {n} labels, got {len(labels)}")
            try:
                distinct = len(set(labels)) == n
            except TypeError:
                raise GraphError("vertex labels must be hashable") from None
            if not distinct:
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

    def neighbors(self, v: int) -> tuple[int, ...]:
        mask = self.adjacency_bits[v]
        return tuple(u for u in range(self.n) if mask >> u & 1)

    def degree(self, v: int) -> int:
        return self.adjacency_bits[v].bit_count()

    def label_of(self, v: int) -> Hashable:
        return self.labels[v] if self.labels is not None else v

    def index_of(self, label: Hashable) -> int:
        """The vertex labelled ``label``, matched in type too: ``True`` and
        ``1.0`` never name the vertex labelled ``1``."""
        labels = self.labels if self.labels is not None else range(self.n)
        v = labels.index(label) if label in labels else None
        if v is None or type(labels[v]) is not type(label):
            raise GraphError(f"unknown vertex label {label!r}")
        return v

    # -- cached global structure --------------------------------------------

    def _bfs_row(self, source: int) -> int:
        # The BFS layers of source packed into one int: layer d sits in bits
        # [dW, (d+1)W), W = 8*ceil(n/8).  Joining the bytes of the layers
        # takes time linear in the row; shifting each one in is quadratic.
        adj = self.adjacency_bits
        width = (self.n + 7) // 8
        seen = frontier = 1 << source
        chunks = []
        while frontier:
            chunks.append(frontier.to_bytes(width, "little"))
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        return int.from_bytes(b"".join(chunks), "little")

    @property
    def _fold(self) -> int:
        # 2^W - 1, with 2^W = 1 modulo it: ``row % fold`` sums a row's chunks.
        return (1 << 8 * ((self.n + 7) // 8)) - 1

    @cached_property
    def distances(self) -> tuple[tuple[int | float, ...], ...]:
        """All-pairs shortest path lengths, :data:`INFINITY` for unreachable
        pairs, from a bitset BFS per source that writes each vertex's
        distance as it pops the vertex and keeps no layers."""
        adj = self.adjacency_bits
        rows = []
        for source in range(self.n):
            row: list[int | float] = [INFINITY] * self.n
            seen = frontier = 1 << source
            d = 0
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    x = low.bit_length() - 1
                    row[x] = d
                    reach |= adj[x]
                    frontier ^= low
                frontier = reach & ~seen
                seen |= frontier
                d += 1
            rows.append(tuple(row))
        return tuple(rows)

    def distance(self, u: int, v: int) -> int | float:
        return self.distances[u][v]

    @cached_property
    def eccentricities(self) -> tuple[int, ...]:
        """The largest distance from each vertex: the maximum of its
        :attr:`distances` row.  Connected graphs only: a row that holds
        :data:`INFINITY` rejects the graph."""
        eccs = tuple(max(row) for row in self.distances)
        if INFINITY in eccs:
            raise GraphError("operation requires a connected graph")
        return eccs

    @cached_property
    def is_connected(self) -> bool:
        """True iff one BFS from vertex 0 reaches every vertex."""
        # The layers are disjoint, so the row holds each reached vertex once.
        return self._bfs_row(0).bit_count() == self.n

    def mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of a vertex set; rejects anything but ints in ``0..n-1``."""
        mask = 0
        for v in vertices:
            if type(v) is not int:
                raise GraphError(f"vertex {v!r} is not an integer")
            if not 0 <= v < self.n:
                raise GraphError(f"vertex {v} outside 0..{self.n - 1}")
            mask |= 1 << v
        return mask

    def bisector_mask(self, u: int, v: int) -> int:
        """B(u, v) as a mask from the rows of u and v alone, folded as below."""
        return (self._bfs_row(u) & self._bfs_row(v)) % self._fold

    @cached_property
    def pair_masks(self) -> tuple[int, ...]:
        """One int per pair u < v: B(u, v) in the low W bits, {u, v} above,
        sorted by popcount: the shortest-first order the ξ and ξ_total
        searches branch in.  ``(row_u & row_v) % (2^W - 1)`` folds the layers
        u and v share into B(u, v), never 2^W - 1 as u is not in it.
        Connected graphs only: the row of vertex 0 must hold every vertex."""
        n, fold = self.n, self._fold
        rows = [self._bfs_row(u) for u in range(n)]
        if rows[0].bit_count() != n:
            raise GraphError("operation requires a connected graph")
        hi = [1 << v + fold.bit_length() for v in range(n)]
        pairs = [
            (rows[u] & rows[v]) % fold | hi[u] | hi[v] for u in range(n) for v in range(u + 1, n)
        ]
        return tuple(sorted(pairs, key=int.bit_count))

    @cached_property
    def _forward_and_ghat(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # A bitset BFS from every source w that keeps no layers: each x in
        # layer d of w gets layer d - 1 in fw[x] and layer d in near[x].
        adj = self.adjacency_bits
        full = (1 << self.n) - 1
        fw, near = [0] * self.n, [0] * self.n
        for w in range(self.n):
            seen = layer = 1 << w
            prev = 0
            while layer:
                reach = 0
                rest = layer
                while rest:
                    low = rest & -rest
                    x = low.bit_length() - 1
                    reach |= adj[x]
                    fw[x] |= prev
                    near[x] |= layer
                    rest ^= low
                prev = layer
                layer = reach & ~seen
                seen |= layer
            if seen != full:
                raise GraphError("operation requires a connected graph")
        return tuple(fw), tuple(full & ~mask for mask in near)

    @property
    def forward_masks(self) -> tuple[int, ...]:
        """``masks[x]`` has bit v set iff some w has d(w, x) = d(w, v) + 1:
        every x in layer d of w gets layer d - 1 of w.  Built with
        :attr:`ghat_rows` in one BFS pass that keeps no layers and rejects
        a disconnected graph."""
        return self._forward_and_ghat[0]

    @property
    def ghat_rows(self) -> tuple[int, ...]:
        """Adjacency rows of the empty bisector graph Ĝ, which joins the
        pairs with no equidistant vertex.  Connected graphs only.

        A vertex w is equidistant from u and v iff v lies in the layer of w
        that holds u, so row(u) is V minus the union of those n layers.
        Only the rows are kept, not a Ĝ ``Graph``: holding one on every
        graph made the slowest corona-ladder requests of ``perfbench``
        about 8% slower on a shared 2-vCPU host.
        """
        return self._forward_and_ghat[1]

    # -- identity ------------------------------------------------------------

    # Labels are display only, so they take no part in equality or hashing.

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # On first use: most graphs, such as corona products, are never hashed.
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def corona(g: Graph, h: Graph) -> Graph:
    """Corona product: ``g`` plus one copy of ``h`` per vertex, joined
    completely to it.  The one statement of the layout, which every corona
    witness uses: base vertex ``i`` keeps index ``i``, and vertex ``j`` of
    the i-th copy is ``n(g) + i * n(h) + j``."""
    ng, nh = g.n, h.n
    edges: list[tuple[int, int]] = list(g.edges)
    for i in range(ng):
        off = ng + i * nh
        edges.extend((off + a, off + b) for a, b in h.edges)
        edges.extend((i, off + j) for j in range(nh))
    return Graph(ng * (1 + nh), edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of ``g1`` and ``g2`` plus every cross edge."""
    n1 = g1.n
    edges = list(g1.edges)
    edges.extend((n1 + a, n1 + b) for a, b in g2.edges)
    edges.extend((u, n1 + v) for u in range(n1) for v in range(g2.n))
    return Graph(n1 + g2.n, edges)
