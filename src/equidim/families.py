"""Generators for the named graph families and the worked example graphs.

Canonical labelings:

* ``empty``/``path``/``cycle``/``complete``: vertices ``0 .. n-1``, paths and
  cycles in vertex order.
* ``wheel``: hub at vertex 0, rim cycle on ``1 .. n-1``.
* ``complete-bipartite r s``: first part ``0 .. r-1``, second ``r .. r+s-1``.
* ``complete-multipartite n1 .. np``: parts laid out in the given order.
* ``bistar r s``: adjacent centers 0 and 1 carrying r and s leaves; the
  normalized form requires ``s >= r``.
* ``hypercube``: vertex ``i`` is the d-bit string of ``i`` (kept as its
  label); edges join strings at Hamming distance one.

The example graphs are fixed small instances used throughout the test and
verification suites; their edge lists are embedded literally and carry
1-indexed labels.
"""

from __future__ import annotations

from .errors import FrozenRecord, GraphError
from .fileio import MAX_INPUT_ORDER
from .graphs import Graph


class FamilySpec(FrozenRecord):
    """Symbolic name of a graph family plus its integer parameters; a name
    that is not a ``str``, or a parameter that is not a plain ``int``
    (``True``, ``2.0``, ``"5"``), is rejected."""

    name: str
    params: tuple[int, ...]

    def __init__(self, name, params=()):
        if type(name) is not str:
            raise GraphError(f"family name must be a string, got {name!r}")
        try:
            params = tuple(params)
        except TypeError:
            raise GraphError(f"family parameters must be a sequence, got {params!r}") from None
        if any(type(p) is not int for p in params):
            raise GraphError(f"family parameters must be integers, got {params!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)


def empty_graph(n: int) -> Graph:
    _check(n >= 1, f"empty graph needs n >= 1, got {n}")
    return Graph(n)


def path_graph(n: int) -> Graph:
    _check(n >= 1, f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _check(n >= 3, f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    _check(n >= 1, f"complete graph needs n >= 1, got {n}")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def wheel_graph(n: int) -> Graph:
    """Hub joined to a rim cycle of length ``n - 1``; order ``n >= 4``."""
    _check(n >= 4, f"wheel needs n >= 4, got {n}")
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    spokes = [(0, i) for i in range(1, n)]
    return Graph(n, rim + spokes)


def complete_bipartite_graph(r: int, s: int) -> Graph:
    _check(r >= 1 and s >= 1, f"complete bipartite needs r, s >= 1, got {r}, {s}")
    return Graph(r + s, [(i, r + j) for i in range(r) for j in range(s)])


def complete_multipartite_graph(sizes: tuple[int, ...]) -> Graph:
    _check(len(sizes) >= 3, f"complete multipartite needs p >= 3 parts, got {len(sizes)}")
    _check(all(x >= 1 for x in sizes), f"part sizes must be >= 1, got {sizes}")
    bounds = [0]
    for x in sizes:
        bounds.append(bounds[-1] + x)
    edges = []
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            edges.extend(
                (u, v)
                for u in range(bounds[a], bounds[a + 1])
                for v in range(bounds[b], bounds[b + 1])
            )
    return Graph(bounds[-1], edges)


def bistar_graph(r: int, s: int) -> Graph:
    """Two adjacent centers with r and s pendant leaves; order ``r + s + 2``."""
    _check(r >= 1, f"bistar needs r >= 1, got {r}")
    _check(s >= r, f"bistar is normalized to s >= r, got r={r}, s={s}")
    edges = [(0, 1)]
    edges.extend((0, 2 + i) for i in range(r))
    edges.extend((1, 2 + r + i) for i in range(s))
    return Graph(r + s + 2, edges)


def hypercube_graph(d: int) -> Graph:
    _check(d >= 1, f"hypercube needs dimension >= 1, got {d}")
    n = 1 << d
    edges = [(i, i ^ (1 << b)) for i in range(n) for b in range(d) if i < i ^ (1 << b)]
    return Graph(n, edges, labels=tuple(format(i, f"0{d}b") for i in range(n)))


# -- worked example graphs (labels 1..n, edge lists embedded literally) ------


def _example(n: int, edges: list[tuple[int, int]]) -> Graph:
    return Graph(n, [(u - 1, v - 1) for u, v in edges], labels=tuple(range(1, n + 1)))


def fish_graph() -> Graph:
    """Six vertices: a 4-cycle with one chord sharing vertices 1,2 with a
    triangle tail at vertex 3.  Its empty bisector graph has exactly the two
    edges 4-5 and 4-6."""
    return _example(6, [(1, 3), (3, 2), (2, 4), (4, 1), (1, 2), (3, 5), (5, 6), (6, 3)])


def k4_leaves_graph() -> Graph:
    """K4 on vertices 1..4 with two pendant leaves 5, 6 attached to vertex 3.

    The standard demonstration that one orientation of a vertex-set pair can
    admit the step-ahead witnesses while the reverse orientation does not.
    """
    return _example(6, [(3, 6), (3, 1), (3, 5), (3, 2), (4, 2), (4, 1), (2, 1), (4, 3)])


def chorded_path_graph() -> Graph:
    """Path 1-2-3-4-5-6-7 plus the chord 3-5 (a triangle bump); the smallest
    non-bipartite example whose sharp lower bound is attained with a strictly
    positive overlap term."""
    return _example(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 5)])


def pendant_triangle_graph() -> Graph:
    """Triangle 1-2-3 with one leaf (4) on vertex 1 and two leaves each on
    vertices 2 (5, 6) and 3 (7, 8).  The corona dimension of this graph
    follows two different lines below and above the linearity threshold."""
    return _example(8, [(1, 2), (2, 3), (3, 1), (1, 4), (2, 5), (2, 6), (3, 7), (3, 8)])


def k5_leaves_graph() -> Graph:
    """K5 on vertices 1..5 with one pendant leaf per clique vertex
    (vertex i+5 hangs off vertex i); its empty bisector graph is the perfect
    matching between clique vertices and their leaves."""
    clique = [(i + 1, (i + 1) % 5 + 1) for i in range(5)]
    clique += [(i + 1, (i + 2) % 5 + 1) for i in range(5)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    return _example(10, clique + spokes)


_FIXED_EXAMPLES = {
    "fish": fish_graph,
    "k4-leaves": k4_leaves_graph,
    "chorded-path": chorded_path_graph,
    "pendant-triangle": pendant_triangle_graph,
    "k5-leaves": k5_leaves_graph,
}

#: family name -> (parameter count, or None for any; order; builder).  The
#: order is read off the parameters, so an oversized family is refused
#: before it is built; a hypercube dimension is clamped first, since only
#: whether it exceeds 10 matters.
_PARAMETRIC = {
    "empty": (1, sum, empty_graph),
    "path": (1, sum, path_graph),
    "cycle": (1, sum, cycle_graph),
    "wheel": (1, sum, wheel_graph),
    "complete": (1, sum, complete_graph),
    "complete-bipartite": (2, sum, complete_bipartite_graph),
    "complete-multipartite": (None, sum, lambda *sizes: complete_multipartite_graph(sizes)),
    "bistar": (2, lambda p: sum(p) + 2, bistar_graph),
    "hypercube": (1, lambda p: 1 << min(max(p[0], 0), 11), hypercube_graph),
}

FAMILY_NAMES = tuple(sorted(_PARAMETRIC) + sorted(_FIXED_EXAMPLES))


def check_arity(spec: FamilySpec) -> None:
    """Raise :class:`GraphError` unless ``spec`` names a known family and
    carries as many parameters as that family takes."""
    if spec.name in _FIXED_EXAMPLES:
        arity = 0
    elif spec.name in _PARAMETRIC:
        arity = _PARAMETRIC[spec.name][0]
    else:
        raise GraphError(f"unknown family {spec.name!r}; known: {', '.join(FAMILY_NAMES)}")
    if arity is not None and len(spec.params) != arity:
        raise GraphError(f"family {spec.name!r} takes {arity} parameter(s), got {len(spec.params)}")


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical graph for a family spec.  Orders above
    :data:`~equidim.fileio.MAX_INPUT_ORDER`, which no edge list may declare,
    are refused."""
    check_arity(spec)
    if spec.name in _FIXED_EXAMPLES:
        return _FIXED_EXAMPLES[spec.name]()
    _, order, builder = _PARAMETRIC[spec.name]
    if order(spec.params) > MAX_INPUT_ORDER:
        raise GraphError(
            f"family {spec.name!r} with parameters {list(spec.params)} has more than "
            f"{MAX_INPUT_ORDER} vertices, the input limit"
        )
    return builder(*spec.params)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise GraphError(message)
