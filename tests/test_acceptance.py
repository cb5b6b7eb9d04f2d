"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All checks are exact equalities; the shared random
corpus is seeded and deterministic.
"""

import time

import pytest

from equidim import (
    FamilySpec,
    GraphError,
    beta_star,
    bounds_report,
    closed_formula,
    empty_bisector_graph,
    generate,
    independence_number,
    k_threshold,
    vertex_cover_number,
    xi_bruteforce,
    xi_corona_oracle,
    xi_corona_structured,
    xi_equals_order_characterization,
)
from equidim.covers import clique_number
from equidim.equalizers import ghat_stats
from equidim.families import (
    chorded_path_graph,
    empty_graph,
    fish_graph,
    path_graph,
    pendant_triangle_graph,
)
from equidim.suites import SUITES, run_suite
from equidim.theory import all_connected_graphs, seeded_corpus, two_coloring

CORPUS_SEED = 20250810


@pytest.fixture(scope="module")
def corpus():
    return seeded_corpus(CORPUS_SEED)


def _stamp(name, started):
    print(f"PASS {name} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_fish_value_table():
    started = time.perf_counter()
    g = fish_graph()
    ghat = empty_bisector_graph(g).graph
    beta = vertex_cover_number(ghat).value
    alpha = independence_number(ghat).value
    overlap = beta_star(g).value
    expected = {1: (6, 7, 6, 7, 6), 2: (7, 8, 8, 8, 8), 3: (8, 9, 10, 9, 9)}
    for n_h, row in expected.items():
        lower = beta * n_h + alpha + overlap
        s1 = n_h + 6  # copies over the unique minimum cover, all base vertices kept
        s2 = 2 * n_h + 4  # copies over the two-vertex cover, four base vertices kept
        upper = beta * n_h + g.n
        exact = xi_corona_structured(g, n_h).value
        assert (lower, s1, s2, upper, exact) == row
    _stamp("criterion 1: fish value table", started)


def test_criterion_2_pendant_triangle_two_slopes():
    started = time.perf_counter()
    g = pendant_triangle_graph()
    values = [xi_corona_structured(g, n_h).value for n_h in range(1, 7)]
    assert values == [8, 12, 16, 19, 22, 25]
    for n_h, value in enumerate(values, start=1):
        assert value == (4 * n_h + 4 if n_h <= 2 else 3 * n_h + 7)
    _stamp("criterion 2: pendant-triangle two slopes", started)


def test_criterion_3_chorded_path_line():
    started = time.perf_counter()
    g = chorded_path_graph()
    ghat = empty_bisector_graph(g).graph
    assert vertex_cover_number(ghat).value == 4
    assert independence_number(ghat).value == 3
    assert beta_star(g).value == 1
    for n_h in range(1, 5):
        assert xi_corona_structured(g, n_h).value == 4 * n_h + 4
    _stamp("criterion 3: chorded-path line", started)


FAMILY_CASES = [
    FamilySpec("complete", (2,)),
    FamilySpec("complete", (3,)),
    FamilySpec("complete", (4,)),
    FamilySpec("complete", (5,)),
    FamilySpec("complete-bipartite", (1, 1)),
    FamilySpec("complete-bipartite", (1, 2)),
    FamilySpec("complete-bipartite", (2, 2)),
    FamilySpec("complete-multipartite", (1, 1, 1)),
    FamilySpec("complete-multipartite", (1, 1, 2)),
    FamilySpec("complete-multipartite", (1, 2, 2)),
    FamilySpec("wheel", (4,)),
    FamilySpec("wheel", (5,)),
    FamilySpec("wheel", (6,)),
    FamilySpec("hypercube", (1,)),
    FamilySpec("hypercube", (2,)),
    FamilySpec("hypercube", (3,)),
    FamilySpec("path", (2,)),
    FamilySpec("path", (3,)),
    FamilySpec("path", (4,)),
    FamilySpec("path", (5,)),
    FamilySpec("cycle", (3,)),
    FamilySpec("cycle", (4,)),
    FamilySpec("cycle", (5,)),
    FamilySpec("cycle", (6,)),
]


def test_criterion_4_family_formulas():
    started = time.perf_counter()
    for spec in FAMILY_CASES:
        g = generate(spec)
        for n_h in (1, 2, 3):
            assert (
                xi_corona_structured(g, n_h).value
                == closed_formula(spec, n_h).value
            ), spec
    # Spot values named by the criterion.
    assert xi_corona_structured(generate(FamilySpec("hypercube", (3,))), 2).value == 12
    assert xi_corona_structured(generate(FamilySpec("path", (5,))), 3).value == 9
    assert xi_corona_structured(generate(FamilySpec("cycle", (6,))), 1).value == 6
    _stamp("criterion 4: family formulas", started)


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    copies = (empty_graph(1), empty_graph(2), path_graph(2))
    census = 0
    for n in range(1, 5):
        for g in all_connected_graphs(n):
            census += 1
            for h in copies:
                assert (
                    xi_corona_structured(g, h.n).value
                    == xi_corona_oracle(g, h).value
                )
    assert census == 1 + 1 + 4 + 38
    _stamp("criterion 5: structured equals oracle on the n<=4 census", started)


def test_criterion_6_bounds_characterization_linearity(corpus):
    started = time.perf_counter()
    assert len(corpus) == 50
    for g in corpus:
        for n_h in range(1, 6):
            report = bounds_report(g, n_h)  # asserts its own chain
            assert report.floor <= report.lower <= report.exact <= report.upper
            predicted, _ = xi_equals_order_characterization(g, n_h)
            assert predicted == (report.exact == g.n)
        line = k_threshold(g)
        for n_h in range(1, line.threshold + 5):
            exact = xi_corona_structured(g, n_h).value
            if n_h > line.threshold:
                assert exact == line.slope * n_h + line.k
            else:
                assert exact <= line.slope * n_h + line.k
    _stamp("criterion 6: bounds, characterization, linearity on 50 graphs", started)


def test_criterion_7_structural_relations(corpus):
    started = time.perf_counter()
    for g in corpus:
        ghat = empty_bisector_graph(g).graph
        # Two searches, so the sum can miss n: β is the staircase's first
        # cover, α comes from a cover search on the Ĝ graph.
        beta = ghat_stats(g)[0]
        alpha = independence_number(ghat).value
        assert alpha + beta == g.n
        try:
            big, small = two_coloring(g)
        except GraphError:
            big = small = None
        if big is not None:
            want = {(min(u, v), max(u, v)) for u in big for v in small}
            assert set(ghat.edges) == want
        if g.n <= 14:
            assert xi_bruteforce(g).value >= beta
        assert max(g.degree(v) for v in range(g.n)) <= alpha
        if g.n != 2:
            assert clique_number(g).value <= alpha
    _stamp("criterion 7: structural relations on the corpus", started)


def test_criterion_8_deterministic_json_reports():
    started = time.perf_counter()
    seed = CORPUS_SEED % 1000
    for name in sorted(SUITES):
        first = run_suite(name, seed)
        assert first.passed, name
        assert run_suite(name, seed).to_json() == first.to_json(), name
    _stamp("criterion 8: byte-identical reports across repeated runs", started)
