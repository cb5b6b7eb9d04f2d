import random

import pytest
from hypothesis import given, settings

import oracles
from conftest import connected_graphs, labelset
from equidim import (
    Graph,
    GraphError,
    bisector,
    corona,
    empty_bisector_graph,
)
from equidim.families import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
from equidim.theory import random_connected_bipartite, two_coloring


class TestBisector:
    def test_p3_midpoint(self):
        assert bisector(path_graph(3), 0, 2) == frozenset({1})

    def test_k2_empty(self):
        assert bisector(complete_graph(2), 0, 1) == frozenset()

    def test_fish_4_5_empty(self, fish):
        assert bisector(fish, fish.index_of(4), fish.index_of(5)) == frozenset()

    def test_endpoints_never_inside(self):
        g = cycle_graph(6)
        for u in range(6):
            for v in range(u + 1, 6):
                b = bisector(g, u, v)
                assert u not in b and v not in b

    def test_same_vertex_rejected(self):
        with pytest.raises(GraphError, match="distinct"):
            bisector(path_graph(3), 1, 1)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            bisector(Graph(3, [(0, 1)]), 0, 1)

    @pytest.mark.parametrize("u, v", [(0.0, 2), (True, 2), (0, "1"), (None, 1)])
    def test_non_integer_vertex_rejected(self, u, v):
        with pytest.raises(GraphError, match="not an integer"):
            bisector(path_graph(5), u, v)

    @pytest.mark.parametrize("u, v", [(0, 5), (-1, 2)])
    def test_out_of_range_vertex_rejected(self, u, v):
        with pytest.raises(GraphError, match="outside 0..4"):
            bisector(path_graph(5), u, v)

    def test_large_graph_reads_two_rows_and_no_table(self):
        g = path_graph(1024)
        assert bisector(g, 0, 1023) == frozenset()
        assert bisector(g, 0, 1022) == frozenset({511})
        assert "distances" not in g.__dict__
        assert "_distance_layers" not in g.__dict__

    @given(connected_graphs(max_n=8))
    @settings(max_examples=40)
    def test_matches_definition(self, g):
        dist = oracles.floyd_warshall(g.n, g.edges)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert bisector(g, u, v) == oracles.bisector_set(dist, u, v)


class TestEmptyBisectorGraph:
    def test_c4_is_complete_bipartite_on_color_classes(self):
        ghat = empty_bisector_graph(cycle_graph(4)).graph
        assert set(ghat.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_fish_exact_edges(self, fish):
        ghat = empty_bisector_graph(fish).graph
        want = {labelset(fish, 4, 5), labelset(fish, 4, 6)}
        assert {frozenset(e) for e in ghat.edges} == want

    def test_k5_corona_gives_perfect_matching(self):
        product = corona(complete_graph(5), empty_graph(1))
        ghat = empty_bisector_graph(product).graph
        assert set(ghat.edges) == {(i, i + 5) for i in range(5)}

    def test_source_order_recorded(self, fish):
        assert empty_bisector_graph(fish).graph.n == fish.n

    def test_labels_preserved(self, fish):
        assert empty_bisector_graph(fish).graph.labels == fish.labels

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            empty_bisector_graph(Graph(4, [(0, 1), (2, 3)]))

    def test_reads_the_shared_rows_without_pair_masks(self):
        g = path_graph(64)
        ghat = empty_bisector_graph(g).graph
        assert "bisector_masks" not in g.__dict__
        assert set(ghat.edges) == oracles.empty_bisector_edges(g.n, g.edges)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_even_cycle_has_k_squared_edges(self, k):
        assert empty_bisector_graph(cycle_graph(2 * k)).graph.m == k * k

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_cycle_is_edgeless(self, n):
        assert empty_bisector_graph(cycle_graph(n)).graph.m == 0

    def test_bipartite_sources_give_complete_bipartite(self):
        rng = random.Random(2021)
        for _ in range(25):
            g = random_connected_bipartite(rng, rng.randint(2, 12))
            big, small = two_coloring(g)
            ghat = empty_bisector_graph(g).graph
            want = {(min(u, v), max(u, v)) for u in big for v in small}
            assert set(ghat.edges) == want

    @given(connected_graphs(max_n=8))
    @settings(max_examples=40)
    def test_edges_force_odd_distance(self, g):
        ghat = empty_bisector_graph(g).graph
        assert all(g.distance(u, v) % 2 == 1 for u, v in ghat.edges)

    @given(connected_graphs(max_n=8))
    @settings(max_examples=40)
    def test_low_eccentricity_vertex_bipartition(self, g):
        ghat = empty_bisector_graph(g).graph
        for u in range(g.n):
            if g.eccentricities[u] <= 2:
                nbhd = set(g.neighbors(u))
                assert all((a in nbhd) != (b in nbhd) for a, b in ghat.edges)

    @given(connected_graphs(max_n=7))
    @settings(max_examples=30)
    def test_agrees_with_definition(self, g):
        ghat = empty_bisector_graph(g).graph
        assert set(ghat.edges) == oracles.empty_bisector_edges(g.n, g.edges)
