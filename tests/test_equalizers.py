import math

import pytest
from hypothesis import given, settings

import oracles
from conftest import connected_graphs, labelset
from equidim import (
    BudgetError,
    FamilySpec,
    ForwardPair,
    Graph,
    GraphError,
    beta_star,
    closed_formula,
    corona,
    empty_bisector_graph,
    forward_equalized,
    generate,
    is_distance_equalizer,
    is_vertex_cover,
    k_threshold,
    mandatory_set,
    vertex_cover_number,
    xi_bruteforce,
    xi_corona_oracle,
    xi_corona_structured,
    xi_total,
)
from equidim.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
from equidim.theory import all_connected_graphs


class TestIsDistanceEqualizer:
    def test_c3_p2_known_set(self):
        cg = corona(cycle_graph(3), path_graph(2))
        # In 1-indexed labels this is {2, 3, 4}: two base vertices plus the
        # first vertex of the copy over base vertex 0.
        s = {1, 2, cg.copy_vertex(0, 0)}
        assert is_distance_equalizer(cg.product, s)

    def test_full_vertex_set_vacuous(self, fish):
        assert is_distance_equalizer(fish, set(range(fish.n)))

    def test_empty_set_on_p4(self):
        assert not is_distance_equalizer(path_graph(4), set())

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            is_distance_equalizer(Graph(2), set())


class TestXiBruteforce:
    def test_complete_bipartite_2_3(self):
        assert xi_bruteforce(complete_bipartite_graph(2, 3)).value == 2

    def test_k5_leaves(self, k5_leaves):
        assert xi_bruteforce(k5_leaves).value == 5

    def test_singleton(self):
        result = xi_bruteforce(Graph(1))
        assert result.value == 0 and result.witness == frozenset()

    def test_budget(self):
        g = path_graph(19)
        with pytest.raises(BudgetError):
            xi_bruteforce(g)
        assert "distances" not in vars(g)  # the cap is checked first

    @given(connected_graphs(max_n=7))
    @settings(max_examples=30)
    def test_matches_definition_oracle(self, g):
        result = xi_bruteforce(g)
        assert result.value == oracles.xi(g.n, g.edges)
        assert is_distance_equalizer(g, result.witness)
        assert len(result.witness) == result.value


class TestXiTotal:
    def test_p3_infinite(self):
        result = xi_total(path_graph(3))
        assert result.value == math.inf and result.witness is None

    def test_k2_infinite(self):
        assert xi_total(complete_graph(2)).value == math.inf

    def test_c5_frozen_value(self):
        # Frozen from the definition-level subset scan: every 2-apart pair
        # has a unique equalizer, which forces the whole vertex set.
        assert oracles.xi_total(5, cycle_graph(5).edges) == 5
        result = xi_total(cycle_graph(5))
        assert result.value == 5 and result.witness == frozenset(range(5))

    @given(connected_graphs(max_n=6))
    @settings(max_examples=25)
    def test_matches_definition_oracle(self, g):
        assert xi_total(g).value == oracles.xi_total(g.n, g.edges)

    def test_finite_iff_edgeless_empty_bisector_graph(self, fish):
        assert empty_bisector_graph(fish).graph.m > 0
        assert xi_total(fish).value == math.inf


class TestForwardEqualized:
    def test_k4_leaves_one_direction_only(self, k4_leaves):
        x1 = labelset(k4_leaves, 1, 2, 3, 5, 6)
        y1 = labelset(k4_leaves, 1, 2, 3, 4)
        assert forward_equalized(k4_leaves, ForwardPair(x1, y1))
        assert not forward_equalized(k4_leaves, ForwardPair(y1, x1))

    def test_full_second_set_always_works(self, fish):
        full = frozenset(range(fish.n))
        for xmask in (frozenset(), frozenset({0, 2}), full):
            assert forward_equalized(fish, ForwardPair(xmask, full))

    def test_union_must_cover(self, fish):
        with pytest.raises(GraphError, match="jointly cover"):
            forward_equalized(fish, ForwardPair(frozenset({0}), frozenset({1})))

    @given(connected_graphs(max_n=7))
    @settings(max_examples=30)
    def test_matches_definition(self, g):
        full = frozenset(range(g.n))
        x = frozenset(v for v in range(g.n) if v % 2 == 0)
        y = (full - x) | frozenset(v for v in x if v % 4 == 0)
        got = forward_equalized(g, ForwardPair(x, y))
        assert got == oracles.forward_equalized(g.n, g.edges, x, y)


class TestMandatorySet:
    def test_fish_unique_cover_is_mandatory(self, fish):
        assert mandatory_set(fish, labelset(fish, 4)) == labelset(fish, 4)

    def test_pendant_triangle(self, pendant_triangle):
        u = labelset(pendant_triangle, 2, 3, 4)
        assert mandatory_set(pendant_triangle, u) == labelset(pendant_triangle, 2, 3)

    def test_whole_vertex_set_never_mandatory(self, fish):
        assert mandatory_set(fish, frozenset(range(fish.n))) == frozenset()


class TestXiCoronaStructured:
    def test_fish_nh2(self, fish):
        assert xi_corona_structured(fish, 2).value == 8

    def test_odd_cycle(self):
        assert xi_corona_structured(cycle_graph(3), 2).value == 3

    def test_pendant_triangle_nh5(self, pendant_triangle):
        assert xi_corona_structured(pendant_triangle, 5).value == 22

    def test_base_of_order_one(self):
        result = xi_corona_structured(Graph(1), 3)
        assert result.value == 1
        assert result.decomposition == (frozenset(), frozenset({0}))

    def test_base_of_order_two(self):
        result = xi_corona_structured(complete_graph(2), 4)
        assert result.value == 5
        assert result.decomposition == (frozenset({0}), frozenset({1}))

    def test_zero_copy_order_rejected(self, fish):
        with pytest.raises(GraphError, match="positive"):
            xi_corona_structured(fish, 0)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            xi_corona_structured(Graph(3, [(0, 1)]), 1)

    def test_decomposition_contract(self, fish, pendant_triangle, chorded_path):
        for g in (fish, pendant_triangle, chorded_path):
            ghat = empty_bisector_graph(g).graph
            for n_h in (1, 2, 3, 4):
                result = xi_corona_structured(g, n_h)
                upper, lower = result.decomposition
                assert upper | lower == frozenset(range(g.n))
                assert is_vertex_cover(ghat, upper)
                assert is_vertex_cover(ghat, lower)
                assert forward_equalized(g, ForwardPair(upper, lower))
                assert result.value == len(upper) * n_h + len(lower)

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("cycle", (28,)),
            FamilySpec("path", (28,)),
            FamilySpec("complete-bipartite", (13, 15)),
        ],
        ids=["C28", "P28", "K13,15"],
    )
    def test_closed_formula_at_the_cap(self, spec):
        # Milliseconds with the branching cover stream; a subset scan of the
        # 2^28 candidate covers takes minutes here.
        g = generate(spec)
        assert g.n == 28
        result = xi_corona_structured(g, 2)
        assert result.value == closed_formula(spec, 2).value
        upper, lower = result.decomposition
        ghat = empty_bisector_graph(g).graph
        assert upper | lower == frozenset(range(g.n))
        assert is_vertex_cover(ghat, upper)
        assert is_vertex_cover(ghat, lower)
        assert forward_equalized(g, ForwardPair(upper, lower))

    def test_witness_lives_in_the_product(self, fish):
        for n_h in (1, 2):
            result = xi_corona_structured(fish, n_h)
            product = corona(fish, empty_graph(n_h)).product
            assert is_distance_equalizer(product, result.witness)
            assert len(result.witness) == result.value


class TestXiCoronaOracle:
    def test_c3_p2(self):
        result = xi_corona_oracle(cycle_graph(3), path_graph(2))
        assert result.value == 3 and len(result.witness) == 3

    def test_k2_n1(self):
        assert xi_corona_oracle(complete_graph(2), empty_graph(1)).value == 2

    def test_p2_n2(self):
        assert xi_corona_oracle(path_graph(2), empty_graph(2)).value == 3

    def test_budget(self):
        with pytest.raises(BudgetError):
            xi_corona_oracle(cycle_graph(5), complete_graph(2))

    def test_witness_projections_are_covers(self):
        g = cycle_graph(4)
        cg = corona(g, empty_graph(2))
        result = xi_corona_oracle(g, empty_graph(2))
        ghat = empty_bisector_graph(g).graph
        upper = cg.upper_projection(result.witness)
        lower = cg.lower_projection(result.witness)
        assert is_vertex_cover(ghat, upper)
        assert is_vertex_cover(ghat, lower)
        assert upper | lower == frozenset(range(g.n))


class TestStructuredOracleAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small_bases(self, n):
        hs = (empty_graph(1), empty_graph(2), path_graph(2))
        for g in all_connected_graphs(n):
            for h in hs:
                assert (
                    xi_corona_structured(g, h.n).value
                    == xi_corona_oracle(g, h).value
                )

    def test_order_only_dependence(self):
        for g in all_connected_graphs(3):
            values = {
                xi_corona_oracle(g, h).value
                for h in (path_graph(3), empty_graph(3), complete_graph(3))
            }
            assert len(values) == 1


def _assert_pair_contract(g, result):
    upper, lower = result.pair
    ghat = empty_bisector_graph(g).graph
    assert is_vertex_cover(ghat, upper) and is_vertex_cover(ghat, lower)
    assert upper | lower == frozenset(range(g.n))
    assert forward_equalized(g, ForwardPair(upper, lower))
    assert upper & lower == result.witness
    assert len(result.witness) == result.value


class TestBetaStar:
    def test_chorded_path(self, chorded_path):
        assert beta_star(chorded_path).value == 1

    def test_pendant_triangle(self, pendant_triangle):
        result = beta_star(pendant_triangle)
        assert result.value == 0
        upper, lower = result.pair
        assert upper & lower == result.witness == frozenset()

    def test_k5_leaves(self, k5_leaves):
        assert beta_star(k5_leaves).value == 0

    def test_pair_contract(self, fish, chorded_path):
        for g in (fish, chorded_path):
            _assert_pair_contract(g, beta_star(g))

    @pytest.mark.parametrize(
        "name, value, overlap, upper, lower",
        [
            ("fish", 0, [], [3, 4], [1, 2, 5, 6]),
            ("chorded_path", 1, [1], [1, 2, 5, 7], [1, 3, 4, 6]),
            ("pendant_triangle", 0, [], [2, 4, 7, 8], [1, 3, 5, 6]),
        ],
    )
    def test_frozen_witness_and_pair(self, request, name, value, overlap, upper, lower):
        g = request.getfixturevalue(name)
        result = beta_star(g)
        assert result.value == value
        assert result.witness == labelset(g, *overlap)
        assert result.pair == (labelset(g, *upper), labelset(g, *lower))

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(min_n=1, max_n=6))
    def test_matches_pair_scan_oracle_on_small_graphs(self, g):
        result = beta_star(g)
        assert result.value == oracles.beta_star(g.n, g.edges)
        _assert_pair_contract(g, result)

    def test_matches_pair_scan_oracle(self, fish, chorded_path, pendant_triangle):
        for g in (fish, chorded_path, pendant_triangle):
            assert beta_star(g).value == oracles.beta_star(g.n, g.edges)

    def test_never_exceeds_cover_number(self):
        for g in all_connected_graphs(4):
            ghat = empty_bisector_graph(g).graph
            assert beta_star(g).value <= vertex_cover_number(ghat).value


class TestKThreshold:
    def test_fish(self, fish):
        line = k_threshold(fish)
        assert (line.k, line.threshold, line.slope) == (6, 2, 1)
        assert line.threshold_bound == "exact"

    def test_pendant_triangle(self, pendant_triangle):
        line = k_threshold(pendant_triangle)
        assert (line.k, line.slope) == (7, 3)

    def test_odd_cycle_constant(self):
        line = k_threshold(cycle_graph(5))
        assert (line.k, line.slope) == (5, 0)

    def test_line_is_exact_beyond_threshold(self, fish, chorded_path):
        for g in (fish, chorded_path):
            line = k_threshold(g)
            for n_h in range(line.threshold + 1, line.threshold + 4):
                assert xi_corona_structured(g, n_h).value == line.slope * n_h + line.k
            for n_h in range(1, line.threshold + 1):
                assert xi_corona_structured(g, n_h).value <= line.slope * n_h + line.k
