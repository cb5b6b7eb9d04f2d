"""Exact equidistant dimension of graphs and corona products.

The package computes distance-equalizer sets and the equidistant dimension,
the total variant, and the corona-product dimension for arbitrary copy
orders, driven by the empty bisector graph and exact vertex-cover search.
Everything is deterministic: optima are tie-broken to lexicographically
smallest witnesses, except the maximum independent set, which is the
lexicographically largest (the complement of the smallest minimum cover).
"""

from .bisectors import EmptyBisectorGraph, bisector, empty_bisector_graph
from .covers import (
    EquidimResult,
    clique_number,
    independence_number,
    is_vertex_cover,
    vertex_cover_number,
)
from .equalizers import (
    ForwardPair,
    ThresholdLine,
    beta_star,
    forward_equalized,
    is_distance_equalizer,
    k_threshold,
    xi_bruteforce,
    xi_corona_oracle,
    xi_corona_structured,
    xi_total,
)
from .errors import BudgetError, EquidimError, GraphError
from .families import FamilySpec, generate
from .fileio import format_edge_list, parse_edge_list, to_dot
from .graphs import INFINITY, Graph, corona, join
from .theory import (
    BoundsReport,
    Ecc2Report,
    FormulaValue,
    bipartite_formula,
    bounds_report,
    closed_formula,
    eccentricity2_case,
    join_formula,
    seeded_corpus,
    universal_vertex_formula,
    xi_equals_order_characterization,
)

__all__ = [
    "BoundsReport",
    "BudgetError",
    "Ecc2Report",
    "EmptyBisectorGraph",
    "EquidimError",
    "EquidimResult",
    "FamilySpec",
    "FormulaValue",
    "ForwardPair",
    "Graph",
    "GraphError",
    "INFINITY",
    "ThresholdLine",
    "beta_star",
    "bipartite_formula",
    "bisector",
    "bounds_report",
    "clique_number",
    "closed_formula",
    "corona",
    "eccentricity2_case",
    "empty_bisector_graph",
    "forward_equalized",
    "format_edge_list",
    "generate",
    "independence_number",
    "is_distance_equalizer",
    "is_vertex_cover",
    "join",
    "join_formula",
    "k_threshold",
    "parse_edge_list",
    "seeded_corpus",
    "to_dot",
    "universal_vertex_formula",
    "vertex_cover_number",
    "xi_bruteforce",
    "xi_corona_oracle",
    "xi_corona_structured",
    "xi_equals_order_characterization",
    "xi_total",
]

__version__ = "0.1.0"
