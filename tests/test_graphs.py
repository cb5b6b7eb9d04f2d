import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings

import oracles
from conftest import connected_graphs, graph_pairs_for_corona, random_graph
from equidim import Graph, GraphError, INFINITY, corona, join
from equidim.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    hypercube_graph,
    path_graph,
    wheel_graph,
)


class TestConstruction:
    def test_path_p3(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.neighbors(1) == (0, 2)

    def test_singleton(self):
        g = Graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_fish_edge_set(self, fish):
        assert fish.n == 6 and fish.m == 8
        expected = {(1, 3), (3, 2), (2, 4), (4, 1), (1, 2), (3, 5), (5, 6), (6, 3)}
        got = {
            (min(fish.label_of(u), fish.label_of(v)), max(fish.label_of(u), fish.label_of(v)))
            for u, v in fish.edges
        }
        assert got == {(min(e), max(e)) for e in expected}

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            Graph(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, [(1, 1)])

    @pytest.mark.parametrize("edge", [(0, 1.0), (0, "1"), (0, True), (True, 2)])
    def test_non_integer_endpoint_rejected(self, edge):
        with pytest.raises(GraphError, match="not an integer"):
            Graph(3, [edge])

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5, None])
    def test_non_pair_edge_rejected(self, edge):
        with pytest.raises(GraphError, match="not a pair"):
            Graph(3, [edge])

    def test_bad_order_rejected(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    @pytest.mark.parametrize("n", [True, 2.0, "3"])
    def test_non_integer_order_rejected(self, n):
        with pytest.raises(GraphError, match="positive integer"):
            Graph(n)

    def test_labels_must_be_distinct(self):
        with pytest.raises(GraphError, match="distinct"):
            Graph(2, [], labels=(7, 7))

    def test_label_round_trip(self, fish):
        for v in range(fish.n):
            assert fish.index_of(fish.label_of(v)) == v
        with pytest.raises(GraphError, match="unknown vertex label"):
            fish.index_of(99)

    @pytest.mark.parametrize("label", [True, 1.0, "1"])
    def test_label_of_another_type_is_unknown(self, fish, label):
        # The fish's vertex 0 is labelled 1, and True == 1.0 == 1.
        with pytest.raises(GraphError, match="unknown vertex label"):
            fish.index_of(label)

    @pytest.mark.parametrize("label", [True, 1.0, -1, 3])
    def test_unlabelled_graph_knows_only_its_vertices(self, label):
        g = Graph(3)
        assert [g.index_of(v) for v in range(3)] == [0, 1, 2]
        with pytest.raises(GraphError, match="unknown vertex label"):
            g.index_of(label)

    def test_unhashable_labels_rejected(self):
        with pytest.raises(GraphError, match="hashable"):
            Graph(2, labels=[[1], [2]])


class TestDistances:
    def test_p3_end_to_end(self):
        assert path_graph(3).distance(0, 2) == 2

    def test_c5_radius_two(self):
        assert max(max(row) for row in cycle_graph(5).distances) == 2

    def test_k5_corona_diameter(self):
        # Frozen from the definition-level oracle on the explicit product.
        k5 = complete_graph(5)
        product = corona(k5, empty_graph(1))
        oracle = oracles.floyd_warshall(product.n, product.edges)
        assert max(max(r) for r in oracle) == 3
        assert max(max(r) for r in product.distances) == 3

    def test_disconnected_sentinel(self):
        g = Graph(2, [])
        assert g.distance(0, 1) is INFINITY

    def test_disconnected_graph_keeps_infinity(self):
        g = Graph(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)])
        d = g.distances
        assert [list(r) for r in d] == oracles.floyd_warshall(g.n, g.edges)
        assert d[0][3] is INFINITY and d[8][0] is INFINITY and d[7][5] == 2

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = random.Random(411)
        for _ in range(100):
            n = rng.randint(1, 32)
            g = random_graph(rng, n, rng.choice((0.05, 0.1, 0.3)))
            assert [list(r) for r in g.distances] == oracles.floyd_warshall(n, g.edges)

    @given(connected_graphs(max_n=9))
    def test_metric_axioms(self, g):
        d = g.distances
        for u in range(g.n):
            assert d[u][u] == 0
            for v in range(g.n):
                assert d[u][v] == d[v][u]
                for w in range(g.n):
                    assert d[u][v] <= d[u][w] + d[w][v]


class TestConnectivity:
    def test_singleton_connected(self):
        assert Graph(1).is_connected

    def test_two_isolated_vertices(self):
        assert not Graph(2).is_connected

    def test_corona_connected_iff_base_is(self):
        assert corona(cycle_graph(3), path_graph(2)).is_connected
        assert not corona(Graph(2), path_graph(2)).is_connected

    def test_disconnected_graph_builds_no_distance_matrix(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        assert not g.is_connected
        assert "distances" not in g.__dict__


def _members(mask, n):
    return {v for v in range(n) if mask >> v & 1}


def _all_labelled_graphs(n):
    slots = list(combinations(range(n), 2))
    for pick in range(1 << len(slots)):
        yield Graph(n, [e for i, e in enumerate(slots) if pick >> i & 1])


def _check_distance_tables(g):
    """The distances, connectivity, eccentricities and pair bisector masks
    of ``g`` against Floyd-Warshall; returns its matrix, or None when ``g``
    is disconnected (every table that needs a connected graph is then
    checked to reject it)."""
    n = g.n
    dist = oracles.floyd_warshall(n, g.edges)
    assert [list(row) for row in g.distances] == dist
    assert g.is_connected == oracles.is_connected(n, g.edges)
    if not g.is_connected:
        for table in ("eccentricities", "bisector_masks", "forward_masks", "ghat_rows"):
            with pytest.raises(GraphError, match="connected"):
                getattr(g, table)
        return None
    assert g.eccentricities == tuple(max(row) for row in dist)
    assert [(u, v, _members(mask, n)) for u, v, mask in g.bisector_masks] == [
        (u, v, oracles.bisector_set(dist, u, v)) for u, v in combinations(range(n), 2)
    ]
    return dist


def _check_tables(g):
    """Every per-graph table of ``g`` against its definition-level oracle."""
    n = g.n
    dist = _check_distance_tables(g)
    if dist is None:
        return
    assert [_members(mask, n) for mask in g.forward_masks] == [
        {v for v in range(n) if any(dist[w][x] == dist[w][v] + 1 for w in range(n))}
        for x in range(n)
    ]
    ghat = oracles.empty_bisector_edges(n, g.edges)
    assert [_members(row, n) for row in g.ghat_rows] == [
        {v for v in range(n) if (min(u, v), max(u, v)) in ghat} for u in range(n)
    ]


class TestPerGraphTables:
    def test_every_labelled_graph_up_to_order_five(self):
        for n in range(1, 6):
            for g in _all_labelled_graphs(n):
                _check_tables(g)

    @given(connected_graphs(min_n=6, max_n=20))
    @settings(max_examples=60, deadline=None)
    def test_connected_graphs_of_order_six_to_twenty(self, g):
        _check_tables(g)

    # A packed BFS row gives each layer W = 8 * ceil(n / 8) bits, so n = 8k
    # fills every chunk of the row and n = 8k + 1 opens a byte more.
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 24, 25])
    def test_every_chunk_width_edge(self, n):
        rng = random.Random(n)
        graphs = [path_graph(n), complete_graph(n), random_graph(rng, n, 0.2)]
        if n >= 3:
            graphs.append(cycle_graph(n))
        for g in graphs:
            _check_tables(g)

    @pytest.mark.parametrize("n", [64, 100, 130])
    @pytest.mark.parametrize("family", [path_graph, cycle_graph], ids=["P", "C"])
    def test_long_rows(self, family, n):
        assert _check_distance_tables(family(n)) is not None

    # Frozen from the distance-matrix tables, recorded before the layers.
    # On these bipartite graphs Ĝ joins the colour classes completely and
    # each forward mask is the other colour class.
    @pytest.mark.parametrize(
        "g, beta, rows",
        [
            (path_graph(20), 10, (0xAAAAA, 0x55555) * 10),
            (cycle_graph(20), 10, (0xAAAAA, 0x55555) * 10),
            (
                hypercube_graph(4),
                8,
                (0x6996, 0x9669, 0x9669, 0x6996, 0x9669, 0x6996, 0x6996, 0x9669)
                + (0x9669, 0x6996, 0x6996, 0x9669, 0x6996, 0x9669, 0x9669, 0x6996),
            ),
            (complete_bipartite_graph(8, 10), 8, (0x3FF00,) * 8 + (0xFF,) * 10),
        ],
        ids=["P20", "C20", "Q4", "K8_10"],
    )
    def test_frozen_ghat_and_forward_masks(self, g, beta, rows):
        assert g.ghat_rows == rows
        assert g.ghat_beta == beta
        assert g.forward_masks == rows


LADDER_POOL = Path(__file__).parents[1] / "perfbench" / "data" / "ladder_pool.json"


def _check_against_layer_walk(g):
    layers = oracles.distance_layers(g.n, g.edges)
    fw, rows = oracles.forward_and_ghat_from_layers(g.n, layers)
    assert g.forward_masks == fw
    assert g.ghat_rows == rows


class TestOnePassCoronaTables:
    """The forward masks and Ĝ rows come from a BFS pass of their own; the
    walk over the distance layers read off Floyd-Warshall is their
    reference."""

    def test_every_connected_labelled_graph_up_to_order_six(self):
        for n in range(1, 7):
            for g in _all_labelled_graphs(n):
                if oracles.is_connected(n, g.edges):
                    _check_against_layer_walk(g)

    def test_benchmark_ladder_graphs(self):
        graphs = json.loads(LADDER_POOL.read_text(encoding="utf-8"))["graphs"]
        assert len(graphs) == 10
        for entry in graphs:
            _check_against_layer_walk(Graph(entry["n"], [tuple(e) for e in entry["edges"]]))


class TestCorona:
    def test_c3_p2_layout(self):
        product = corona(cycle_graph(3), path_graph(2))
        # triangle 0-1-2, copy of vertex i on {3+2i, 4+2i}, each joined to i
        expected = {(0, 1), (0, 2), (1, 2)}
        for i in range(3):
            a, b = 3 + 2 * i, 4 + 2 * i
            expected |= {(a, b), (i, a), (i, b)}
        assert set(product.edges) == expected
        assert product.n == 9

    def test_matches_definition_level_construction(self):
        g, h = cycle_graph(4), path_graph(3)
        n, edges = oracles.corona_edges(g.n, g.edges, h.n, h.edges)
        product = corona(g, h)
        assert product.n == n
        assert set(product.edges) == {(min(e), max(e)) for e in edges}

    def test_k1_base_is_universal(self):
        assert corona(Graph(1), cycle_graph(4)).degree(0) == 4

    def test_k5_corona_max_degree(self):
        product = corona(complete_graph(5), empty_graph(1))
        assert max(product.degree(v) for v in range(product.n)) == 5

    def test_cross_copy_distance(self):
        g, h = cycle_graph(3), path_graph(2)
        u, w = 3, 6  # vertex 0 of copy 0 and vertex 1 of copy 1
        assert divmod(u - g.n, h.n) == (0, 0) and divmod(w - g.n, h.n) == (1, 1)
        assert corona(g, h).distance(u, w) == g.distance(0, 1) + 2 == 3

    @given(graph_pairs_for_corona())
    @settings(max_examples=60)
    def test_distance_law_exhaustive(self, pair):
        g, h = pair
        product = corona(g, h)
        d = product.distances
        dg, dh = g.distances, h.distances
        # A base vertex x keeps index x; the others are (copy i, vertex j).
        roles = [divmod(v - g.n, h.n) if v >= g.n else None for v in range(product.n)]
        for x in range(product.n):
            for y in range(x + 1, product.n):
                rx, ry = roles[x], roles[y]
                if rx is None and ry is None:
                    want = dg[x][y]
                elif rx is not None and ry is not None:
                    if rx[0] == ry[0]:
                        want = min(dh[rx[1]][ry[1]], 2)
                    else:
                        want = dg[rx[0]][ry[0]] + 2
                else:
                    base, copy = (x, ry) if rx is None else (y, rx)
                    want = dg[base][copy[0]] + 1
                assert d[x][y] == want


class TestJoin:
    def test_wheel_is_join_of_hub_and_rim(self):
        assert join(Graph(1), cycle_graph(4)) == wheel_graph(5)

    def test_k2_from_two_singletons(self):
        assert join(Graph(1), Graph(1)) == complete_graph(2)

    def test_complete_bipartite_from_empty_parts(self):
        assert join(empty_graph(2), empty_graph(3)) == complete_bipartite_graph(2, 3)

    @given(connected_graphs(max_n=5), connected_graphs(max_n=5))
    @settings(max_examples=40)
    def test_order_and_cross_edges(self, g1, g2):
        j = join(g1, g2)
        assert j.n == g1.n + g2.n
        assert all((u, g1.n + v) in j.edges for u in range(g1.n) for v in range(g2.n))


class TestEccentricities:
    def test_c6_eccentricities(self):
        assert cycle_graph(6).eccentricities == (3,) * 6

    def test_fish_radius(self, fish):
        # Frozen from a BFS/Floyd-Warshall sweep: eccentricities (2,2,2,3,3,3).
        oracle = oracles.floyd_warshall(fish.n, fish.edges)
        assert min(max(row) for row in oracle) == 2
        assert min(fish.eccentricities) == 2 and max(fish.eccentricities) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="^operation requires a connected graph$"):
            Graph(3, [(0, 1)]).eccentricities
