"""Bisectors of vertex pairs and the empty bisector graph.

The bisector of two distinct vertices is the set of vertices equidistant
from both.  The empty bisector graph lives on the same vertex set as the
source graph and joins exactly the pairs whose bisector is empty; it is
materialized as a first-class :class:`~equidim.graphs.Graph` so that the
cover machinery applies to it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError
from .graphs import Graph


def bisector(g: Graph, u: int, v: int) -> frozenset[int]:
    """All vertices ``w`` with ``d(w, u) == d(w, v)``; requires ``u != v``."""
    g.require_connected()
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"vertices {u}, {v} outside 0..{g.n - 1}")
    if u == v:
        raise GraphError("bisector is defined for distinct vertices only")
    dist = g.distances
    return frozenset(w for w in range(g.n) if dist[w][u] == dist[w][v])


@dataclass(frozen=True)
class EmptyBisectorGraph:
    """The empty bisector graph of a source graph, on the same vertex set."""

    graph: Graph
    source_order: int


def empty_bisector_graph(g: Graph) -> EmptyBisectorGraph:
    """Graph on V(g) whose edges are exactly the pairs with empty bisector,
    read off the graph's cached pair bisector masks."""
    g.require_connected()
    edges = [(u, v) for u, v, mask in g.bisector_masks if not mask]
    return EmptyBisectorGraph(Graph(g.n, edges, labels=g.labels), g.n)
