"""Closed formulas, bounds, and characterizations for the corona dimension,
plus the seeded random-graph sampler used by the verification suites.

Every function here is a statement about graphs that the solver modules can
check computationally; the verification suites in :mod:`equidim.suites`
cross-check each one against the exact structured search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import equalizers
from .errors import BudgetError, GraphError, check_copy_order
from .families import FamilySpec, check_arity
from .graphs import Graph, _bits


@dataclass(frozen=True)
class BoundsReport:
    """All general bounds next to the exact value for one base graph and one
    copy order.  Only ``upper_via_xi`` can be ``None``: ξ(G) is skipped
    above its own order cap.  The values always satisfy ``floor <= exact``
    and ``lower_weak <= lower <= exact <= upper <= upper_via_xi``.
    """

    n_h: int
    floor: int
    lower_weak: int
    lower: int
    upper: int
    upper_via_xi: int | None
    exact: int


@dataclass(frozen=True)
class FormulaValue:
    """Result of one closed-formula clause.

    The bistar clause is flagged: the expression ``r*n(H) + s`` would need
    partite sets of sizes r and s, but the order-(r+s+2) bistar has parts of
    sizes r+1 and s+1.  Both values are reported; ``alternate_value``
    carries the bipartite-rule value, the same expression at r+1 and s+1,
    which is the one the verification suites trust.
    """

    value: int
    flagged: bool = False
    alternate_value: int | None = None


@dataclass(frozen=True)
class Ecc2Report:
    """Upper bound obtained from a vertex of eccentricity at most two, and
    the exact value when such a vertex has degree equal to the independence
    number of the empty bisector graph."""

    upper: int
    exact: int | None


def bounds_report(g: Graph, n_h: int) -> BoundsReport:
    """Every general bound plus the exact structured value."""
    check_copy_order(n_h)
    beta, alpha = equalizers.ghat_stats(g)
    floor = g.n
    lower_weak = beta * n_h + alpha
    lower = lower_weak + equalizers.beta_star(g).value
    upper = beta * n_h + g.n
    try:
        upper_via_xi = equalizers.xi_bruteforce(g).value * n_h + g.n
    except BudgetError:
        upper_via_xi = None
    exact = equalizers.xi_corona_structured(g, n_h).value
    report = BoundsReport(n_h, floor, lower_weak, lower, upper, upper_via_xi, exact)
    _assert_chain(report)
    return report


def _assert_chain(r: BoundsReport) -> None:
    ok = r.floor <= r.exact and r.lower_weak <= r.lower <= r.exact <= r.upper
    if r.upper_via_xi is not None:
        ok = ok and r.upper <= r.upper_via_xi
    if not ok:
        raise AssertionError(f"bound chain violated: {r}")


#: family -> (condition on the parameters, that condition as stated, value
#: at n(H)).
_CLAUSES = {
    "complete": (lambda n: n >= 2, "n >= 2", lambda n_h, n: n_h + 1 if n == 2 else n),
    "complete-bipartite": (lambda r, s: 1 <= r <= s, "1 <= r <= s", lambda n_h, r, s: r * n_h + s),
    "bistar": (lambda r, s: 1 <= r <= s, "1 <= r <= s", lambda n_h, r, s: r * n_h + s),
    "complete-multipartite": (
        lambda *sizes: len(sizes) >= 3 and min(sizes) >= 1,
        "p >= 3 parts, each of size >= 1",
        lambda n_h, *sizes: sum(sizes),
    ),
    "wheel": (lambda n: n >= 4, "n >= 4", lambda n_h, n: n),
    "hypercube": (lambda d: d >= 1, "dimension >= 1", lambda n_h, d: (1 << (d - 1)) * (n_h + 1)),
    "path": (lambda n: n >= 2, "n >= 2", lambda n_h, n: (n // 2) * n_h + (n + 1) // 2),
    "cycle": (lambda n: n >= 3, "n >= 3", lambda n_h, n: n if n % 2 else n * (n_h + 1) // 2),
}


def closed_formula(spec: FamilySpec, n_h: int) -> FormulaValue:
    """Corona dimension of a named family by its closed-form clause."""
    check_copy_order(n_h)
    if spec.name not in _CLAUSES:
        raise GraphError(f"no closed formula for {spec.name!r}; covered: {', '.join(_CLAUSES)}")
    check_arity(spec)
    condition, stated, value = _CLAUSES[spec.name]
    if not condition(*spec.params):
        raise GraphError(f"{spec.name} clause needs {stated}, got {list(spec.params)}")
    bistar = spec.name == "bistar"
    alternate = value(n_h, *(p + 1 for p in spec.params)) if bistar else None
    return FormulaValue(value(n_h, *spec.params), bistar, alternate)


def xi_equals_order_characterization(g: Graph, n_h: int) -> tuple[bool, str]:
    """Whether the corona dimension collapses to the base order, decided
    from the empty bisector graph alone."""
    check_copy_order(n_h)
    beta, _ = equalizers.ghat_stats(g)
    if beta == 0:
        return True, "empty bisector graph has no edges"
    if n_h == 1 and equalizers.beta_star(g).value == 0:
        return True, "single-vertex copies and zero cover overlap"
    return False, "no clause applies"


def two_coloring(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """The unique bipartition of a connected bipartite graph (smaller side
    second); rejects non-bipartite input.  The sides are the even and the
    odd BFS layers of vertex 0, read off its packed row."""
    row, fold = g._bfs_row(0), g._fold
    if row.bit_count() != g.n:
        raise GraphError("operation requires a connected graph")
    sides = [0, 0]
    parity = 0
    while row:
        sides[parity] |= row & fold
        row >>= fold.bit_length()
        parity ^= 1
    # An edge joins equal or adjacent layers, so one inside a side lies in
    # one layer and closes an odd cycle.
    adj = g.adjacency_bits
    if any(adj[v] & side for side in sides for v in _bits(side)):
        raise GraphError("graph is not bipartite")
    a, b = (frozenset(_bits(side)) for side in sides)
    return (a, b) if len(a) >= len(b) else (b, a)


def bipartite_formula(g: Graph, n_h: int) -> int:
    """Corona dimension of a connected bipartite base graph: the smaller
    part buys full copies, the larger part is taken whole."""
    check_copy_order(n_h)
    big, small = two_coloring(g)
    return len(small) * n_h + len(big)


def join_formula(g1: Graph, g2: Graph, n_h: int) -> int:
    """Corona dimension over a join base: simply the total order, provided
    at least one side has no isolated vertices."""
    check_copy_order(n_h)
    if min(g1.degree(v) for v in range(g1.n)) == 0 and (
        min(g2.degree(v) for v in range(g2.n)) == 0
    ):
        raise GraphError("join formula needs one side without isolated vertices")
    return g1.n + g2.n


def eccentricity2_case(g: Graph, n_h: int) -> Ecc2Report | None:
    """Bound from a vertex seeing everything within distance two, if any."""
    check_copy_order(n_h)
    qualifying = [v for v in range(g.n) if g.eccentricities[v] <= 2]
    if not qualifying:
        return None
    upper = min((g.n - g.degree(v)) * n_h + g.degree(v) for v in qualifying)
    _, alpha = equalizers.ghat_stats(g)
    exact = None
    if any(g.degree(v) == alpha for v in qualifying):
        exact = (g.n - alpha) * n_h + alpha
    return Ecc2Report(upper, exact)


def universal_vertex_formula(g: Graph, n_h: int) -> int:
    """Corona dimension when the base graph has a universal vertex, read
    off the degrees alone."""
    check_copy_order(n_h)
    degrees = [g.degree(v) for v in range(g.n)]
    if g.n < 2 or max(degrees) != g.n - 1:
        raise GraphError("formula needs a universal vertex in a graph of order >= 2")
    if min(degrees) >= 2:
        return g.n
    return n_h + g.n - 1


# -- seeded random corpus -------------------------------------------------------

#: Sampling parameters: the samplers' resampling limit, the corpus's size,
#: order range and edge probabilities, and the bipartite cross-edge
#: probability.
MAX_TRIES = 10000
CORPUS_SIZE = 50
CORPUS_MIN_ORDER = 4
CORPUS_MAX_ORDER = 10
CORPUS_DENSITIES = (0.3, 0.5, 0.7)
BIPARTITE_P = 0.6


def random_connected_graph(
    rng: random.Random, n: int, p: float, max_tries: int = MAX_TRIES
) -> Graph:
    """One connected sample: edge probability ``p``, resampled on disconnect."""
    if n < 1:
        raise GraphError(f"order must be positive, got {n}")
    for _ in range(max_tries):
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph(n, edges)
        if g.is_connected:
            return g
    raise GraphError(f"no connected sample after {max_tries} tries (n={n}, p={p})")


def seeded_corpus(seed: int) -> list[Graph]:
    """Deterministic list of connected random graphs at mixed densities."""
    rng = random.Random(seed)
    out = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(CORPUS_MIN_ORDER, CORPUS_MAX_ORDER)
        p = rng.choice(CORPUS_DENSITIES)
        out.append(random_connected_graph(rng, n, p))
    return out


def random_connected_bipartite(rng: random.Random, n: int) -> Graph:
    """One connected bipartite sample: cross edges only, resampled on
    disconnect.  For n = 1 this is the single vertex."""
    if n < 1:
        raise GraphError(f"order must be positive, got {n}")
    if n == 1:
        return Graph(1)
    for _ in range(MAX_TRIES):
        r = rng.randint(1, n - 1)
        edges = [
            (u, v) for u in range(r) for v in range(r, n) if rng.random() < BIPARTITE_P
        ]
        g = Graph(n, edges)
        if g.is_connected:
            return g
    raise GraphError(f"no connected bipartite sample after {MAX_TRIES} tries (n={n})")


def all_connected_graphs(n: int) -> list[Graph]:
    """Every connected graph on the labeled vertex set 0..n-1."""
    if n < 1:
        raise GraphError(f"order must be positive, got {n}")
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []
    for mask in range(1 << len(slots)):
        g = Graph(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])
        if g.is_connected:
            out.append(g)
    return out
