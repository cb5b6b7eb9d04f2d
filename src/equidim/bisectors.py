"""Bisectors of vertex pairs and the empty bisector graph.

The bisector of two distinct vertices is the set of vertices equidistant
from both.  The empty bisector graph lives on the same vertex set as the
source graph and joins exactly the pairs whose bisector is empty.  The
solvers read its adjacency rows, :attr:`~equidim.graphs.Graph.ghat_rows`;
:func:`empty_bisector_graph` builds it as a :class:`~equidim.graphs.Graph`
only for a caller that asks for one, such as the ``empty-bisector`` command
and the verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError
from .graphs import Graph, _bits


def bisector(g: Graph, u: int, v: int) -> frozenset[int]:
    """All vertices ``w`` with ``d(w, u) == d(w, v)``; requires ``u != v``.
    Three BFS runs: the connectivity check, then the rows of u and v."""
    if not g.is_connected:  # before the arguments, so this error wins
        raise GraphError("operation requires a connected graph")
    g.mask((u, v))  # rejects a non-int (bool included) or out-of-range vertex
    if u == v:
        raise GraphError("bisector is defined for distinct vertices only")
    return frozenset(_bits(g.bisector_mask(u, v)))


@dataclass(frozen=True)
class EmptyBisectorGraph:
    """The empty bisector graph of a source graph, on the same vertex set."""

    graph: Graph


def empty_bisector_graph(g: Graph) -> EmptyBisectorGraph:
    """Graph on V(g) whose edges are exactly the pairs with empty bisector,
    read off the graph's cached Ĝ adjacency rows."""
    edges = [(u, v) for u, row in enumerate(g.ghat_rows) for v in _bits(row) if u < v]
    return EmptyBisectorGraph(Graph(g.n, edges, labels=g.labels))
