import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    clear_solver_caches,
    connected_graphs,
    count_table_builds,
    hard_draws,
    labelset,
    traced_growth,
)
from equidim import (
    BudgetError,
    FamilySpec,
    ForwardPair,
    Graph,
    GraphError,
    INFINITY,
    beta_star,
    bipartite_formula,
    bisector,
    bounds_report,
    closed_formula,
    corona,
    eccentricity2_case,
    empty_bisector_graph,
    forward_equalized,
    generate,
    is_distance_equalizer,
    is_vertex_cover,
    join_formula,
    k_threshold,
    universal_vertex_formula,
    vertex_cover_number,
    xi_bruteforce,
    xi_corona_oracle,
    xi_corona_structured,
    xi_equals_order_characterization,
    xi_total,
)
from equidim import equalizers
from equidim.equalizers import ThresholdLine, _equalizer_masks, _min_hitting_subset
from equidim.families import (
    chorded_path_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    fish_graph,
    path_graph,
)
from equidim.fileio import format_edge_list, parse_edge_list
from equidim.theory import all_connected_graphs, two_coloring


class TestIsDistanceEqualizer:
    def test_c3_p2_known_set(self):
        # In 1-indexed labels this is {2, 3, 4}: two base vertices plus
        # vertex 3 = 3 + 0 * 2 + 0, the first vertex of the copy over 0.
        assert is_distance_equalizer(corona(cycle_graph(3), path_graph(2)), {1, 2, 3})

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

    @given(connected_graphs(min_n=7, max_n=11))
    @settings(max_examples=30, deadline=None)
    def test_matches_definition_oracle(self, g):
        result = xi_bruteforce(g)
        assert (result.value, result.witness) == oracles.xi(g.n, g.edges)
        assert is_distance_equalizer(g, result.witness)


class TestXiTotal:
    def test_p3_infinite(self):
        result = xi_total(path_graph(3))
        assert result.value == math.inf and result.witness is None

    def test_k2_infinite(self):
        assert xi_total(complete_graph(2)).value == math.inf

    def test_c5_frozen_value(self):
        # Frozen from the definition-level subset scan: every 2-apart pair
        # has a unique equalizer, which forces the whole vertex set.
        assert oracles.xi_total(5, cycle_graph(5).edges) == (5, set(range(5)))
        result = xi_total(cycle_graph(5))
        assert result.value == 5 and result.witness == frozenset(range(5))

    @given(connected_graphs(min_n=7, max_n=11))
    @settings(max_examples=25, deadline=None)
    def test_matches_definition_oracle(self, g):
        result = xi_total(g)
        assert (result.value, result.witness) == oracles.xi_total(g.n, g.edges)

    def test_finite_iff_edgeless_empty_bisector_graph(self, fish):
        assert empty_bisector_graph(fish).graph.m > 0
        assert xi_total(fish).value == math.inf

    def test_no_finite_set_reads_the_one_infinity(self):
        assert xi_total(cycle_graph(18)).value is INFINITY


def _edges(text):
    return [tuple(map(int, pair.split("-"))) for pair in text.split()]


#: (value, witness) of xi and xi_total as the subset scan that the
#: hitting-set search replaced computed them; the three random graphs are
#: members of the xi-scan benchmark pool.
FROZEN = {
    "P18": (
        path_graph(18),
        (13, [0, 2, 3, 4, 6, 8, 9, 10, 11, 12, 13, 14, 16]),
        (math.inf, None),
    ),
    "C18": (cycle_graph(18), (9, [0, 2, 4, 6, 8, 10, 12, 14, 16]), (math.inf, None)),
    "fish": (fish_graph(), (2, [2, 3]), (math.inf, None)),
    "x042": (
        Graph(18, _edges(
            "0-6 0-9 0-13 0-17 1-4 1-5 1-11 1-13 1-16 2-3 2-8 2-10 2-11 2-14 "
            "3-12 4-5 4-7 4-11 4-13 4-15 6-7 6-10 6-12 7-12 7-15 8-12 8-16 "
            "8-17 9-10 9-16 10-15 10-16 11-12 11-13 11-14 11-17 13-16 15-16 "
            "15-17"
        )),
        (5, [0, 3, 5, 15, 17]),
        (7, [0, 1, 6, 8, 13, 14, 17]),
    ),
    "x003": (
        Graph(18, _edges(
            "0-4 0-8 0-12 0-14 0-15 0-16 1-7 1-8 1-9 1-15 2-11 2-13 2-15 2-16 "
            "3-13 3-16 4-13 5-9 5-10 5-12 5-13 5-15 5-16 6-8 6-10 6-11 6-14 "
            "6-15 6-16 7-9 7-11 7-13 7-17 8-13 8-15 9-17 10-14 11-17 12-13 "
            "12-14 12-16 13-16 14-17 15-16"
        )),
        (5, [0, 1, 8, 12, 14]),
        (7, [1, 2, 7, 8, 9, 13, 15]),
    ),
    "x051": (
        Graph(18, _edges(
            "0-2 0-5 0-6 0-7 0-8 0-11 0-12 1-4 1-8 1-9 1-10 1-11 1-16 2-3 2-5 "
            "2-6 2-7 2-10 2-11 2-14 2-15 2-16 2-17 3-6 3-7 3-8 3-9 3-15 4-6 "
            "4-7 4-8 4-9 4-11 4-12 4-13 4-15 4-16 4-17 5-8 5-10 5-12 5-13 "
            "5-14 5-15 6-7 6-8 6-10 6-17 7-9 7-11 7-12 7-13 7-15 8-10 8-15 "
            "8-16 8-17 9-10 9-13 9-15 9-16 9-17 10-13 10-14 11-14 11-15 "
            "12-16 13-15 13-17 14-15 14-16 14-17 15-17"
        )),
        (4, [0, 4, 10, 14]),
        (6, [0, 1, 2, 5, 7, 13]),
    ),
}


@st.composite
def mask_families(draw):
    """``(n, masks)`` with n <= 12: uniform random nonzero masks, with or
    without the pairs of a random graph, plus near-full masks, singletons,
    masks nested in others and duplicates, in random order."""
    n = draw(st.integers(1, 12))
    # Uniform bits: hypothesis's own integers lean to small and extreme
    # values, which make families whose optimum the first choices reach.
    rng = draw(st.randoms(use_true_random=True))
    full = (1 << n) - 1
    density = draw(st.sampled_from([0.0, 0.3]))
    masks = [1 << u | 1 << v for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    masks += [rng.randint(1, full) for _ in range(rng.randint(n, 3 * n))]
    masks += [full & ~(1 << rng.randrange(n)) or full for _ in range(rng.randint(0, 2))]
    masks += [1 << rng.randrange(n) for _ in range(rng.randint(0, 2))]
    nested = rng.sample(masks, rng.randint(0, n))
    masks += [mask & rng.randint(1, full) or mask for mask in nested]
    masks += rng.choices(masks, k=rng.randint(0, 4))
    rng.shuffle(masks)
    return n, masks


def _value_and_witness(result):
    witness = None if result.witness is None else sorted(result.witness)
    return result.value, witness


class TestHittingSetSearch:
    """xi and xi_total return the subset scan's answer: the smallest size,
    then the lexicographically first set of that size."""

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_values_and_witnesses(self, name):
        g, xi, total = FROZEN[name]
        assert _value_and_witness(xi_bruteforce(g)) == xi
        assert _value_and_witness(xi_total(g)) == total

    @pytest.mark.parametrize(
        "g, size, witness",
        [
            (cycle_graph(32), 23, [*range(15), *range(16, 31, 2)]),
            (
                path_graph(40),
                31,
                [0, 2, 3, 4, 6, 7, 8, 9, 10, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22]
                + [24, 25, 26, 28, 30, 31, 32, 33, 34, 35, 36, 38],
            ),
            (cycle_graph(40), 29, [*range(19), *range(20, 39, 2)]),
        ],
        ids=["C_32", "P_40", "C_40"],
    )
    def test_frozen_witnesses_above_the_order_cap(self, g, size, witness):
        # xi_bruteforce caps the order at 18, so the search is called directly.
        assert _min_hitting_subset(g.n, _equalizer_masks(g)) == (size, frozenset(witness))

    def test_feasibility_searches_exclude_every_decided_vertex(self, monkeypatch):
        # A vertex left out earlier is in no set of the allowed size, so
        # leaving it open changes no result; it only widens the search.
        search = equalizers._min_hitting_search
        excluded = []

        def recording(masks, inc, unhit, out, best, stop):
            excluded.append(out)
            return search(masks, inc, unhit, out, best, stop)

        monkeypatch.setattr(equalizers, "_min_hitting_search", recording)
        g = path_graph(18)
        _min_hitting_subset(g.n, _equalizer_masks(g))
        sizing, *feasibility = excluded
        assert sizing == 0 and feasibility
        assert all(out & (out + 1) == 0 for out in feasibility)
        assert feasibility == sorted(set(feasibility))

    @pytest.mark.parametrize(
        "name, xi_calls, total_calls",
        # Deciding the steps with room 0 or 1, or that leave no set unhit,
        # by hand took 4 / 0 searches on P18 and 4 / 11 on x042.
        [("P18", 5, 0), ("x042", 14, 13)],
    )
    def test_one_search_per_undecided_witness_step(
        self, monkeypatch, name, xi_calls, total_calls
    ):
        # The first call sizes; each later one decides a vertex outside the
        # last minimum set found that meets an unhit set, capped at its room.
        search = equalizers._min_hitting_search
        stops = []

        def recording(masks, inc, unhit, out, best, stop):
            stops.append((best, stop))
            return search(masks, inc, unhit, out, best, stop)

        monkeypatch.setattr(equalizers, "_min_hitting_search", recording)
        clear_solver_caches()
        g, xi, total = FROZEN[name]
        g = Graph(g.n, g.edges)
        assert _value_and_witness(xi_bruteforce(g)) == xi
        xi_stops = stops[:]
        assert _value_and_witness(xi_total(g)) == total
        total_stops = stops[len(xi_stops):]
        assert (len(xi_stops), len(total_stops)) == (xi_calls, total_calls)
        assert all(best == room + 1 >= 1 for best, room in xi_stops[1:] + total_stops[1:])

    def test_one_sorted_table_serves_xi_and_xi_total(self, monkeypatch):
        # ξ builds and sorts the pair masks once; ξ_total reads the same
        # table, and neither search sorts anything.
        from equidim import graphs

        g, _, _ = FROZEN["x042"]
        g = Graph(g.n, g.edges)
        sorts = []

        def counting(*args, **kwargs):
            sorts.append(kwargs.get("key"))
            return sorted(*args, **kwargs)

        for module in (graphs, equalizers):
            monkeypatch.setattr(module, "sorted", counting, raising=False)
        clear_solver_caches()
        xi_bruteforce(g)
        table = g.__dict__["pair_masks"]
        xi_total(g)
        assert g.__dict__["pair_masks"] is table and len(table) == 18 * 17 // 2
        assert sorts == [int.bit_count]

    def test_empty_family(self):
        assert _min_hitting_subset(4, []) == (0, frozenset())

    @given(mask_families())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_subset_scan_on_mask_families(self, family):
        # Graph masks seldom make the sizing search branch wide or leave an
        # element out that every optimum needs; these families do.
        n, masks = family
        size, witness = oracles.min_hitting_set(n, masks)
        assert _min_hitting_subset(n, masks) == (size, frozenset(witness))

    def test_matches_oracles_on_all_small_connected_graphs(self):
        checked = 0
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                xi, total = xi_bruteforce(g), xi_total(g)
                assert (xi.value, xi.witness) == oracles.xi(g.n, g.edges), g.edges
                assert (total.value, total.witness) == oracles.xi_total(g.n, g.edges), g.edges
                checked += 1
        assert checked == 1 + 1 + 4 + 38 + 728 + 26704


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
    # A member x of U is mandatory when a valid L that holds V minus U must
    # hold x too, so (U, (V - U) | S) is forward-equalized iff S holds every
    # mandatory member of U.
    def test_fish_unique_cover_is_mandatory(self, fish):
        u = labelset(fish, 4)
        assert not forward_equalized(fish, ForwardPair(u, frozenset(range(fish.n)) - u))

    def test_pendant_triangle(self, pendant_triangle):
        # 2 and 3 are mandatory and 4 is not.
        u = labelset(pendant_triangle, 2, 3, 4)
        outside = frozenset(range(pendant_triangle.n)) - u
        for extra, valid in (((2, 3), True), ((2, 4), False), ((3, 4), False)):
            pair = ForwardPair(u, outside | labelset(pendant_triangle, *extra))
            assert forward_equalized(pendant_triangle, pair) is valid

    def test_whole_vertex_set_never_mandatory(self, fish):
        assert forward_equalized(fish, ForwardPair(frozenset(range(fish.n)), frozenset()))


def _staircase_split(g, n_h):
    """``(cost, U, L)`` as masks, read off the staircase at copy order n_h."""
    result = xi_corona_structured(g, n_h)
    return (result.value, *map(g.mask, result.decomposition))


def _leaves_on_complete(k):
    """K_k with a pendant leaf on each vertex; leaf of v is k + v."""
    clique = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return Graph(2 * k, clique + [(v, k + v) for v in range(k)])


class TestBestSplit:
    def test_matches_pair_scan_oracle(self):
        # Every connected labelled graph of order at most 5, 772 in all.
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                for n_h in (1, 2, 3, 9):
                    want = oracles.corona_split(g.n, g.edges, n_h)
                    assert _staircase_split(g, n_h) == want, (g.edges, n_h)

    def test_split_reader_matches_the_corona_result(self):
        # Every connected labelled graph of order at most 6, 27,476 in all.
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                for n_h in (1, 2, 3, 7):
                    result = xi_corona_structured(g, n_h)
                    split = (result.value, *result.decomposition)
                    assert equalizers._corona_split(g, n_h) == split, (g.edges, n_h)

    @pytest.mark.parametrize("draw", [82, 95, 113])
    def test_matches_unbounded_search_on_hard_draws(self, draw):
        g = hard_draws(draw)[-1]
        for n_h in range(1, 6):
            assert _staircase_split(g, n_h) == oracles.best_split(g, n_h), n_h

    def test_matches_unbounded_search_on_leaves_on_k10(self):
        g = _leaves_on_complete(10)
        for n_h in range(1, 6):
            assert _staircase_split(g, n_h) == oracles.best_split(g, n_h), n_h

    @pytest.mark.parametrize("draw, pulled", [(160, 39), (95, 2)])
    def test_overlap_pulls_few_covers_on_hard_draws(self, monkeypatch, draw, pulled):
        # The unbounded n(H) = 1 search pulls 332,935 covers on draw 160 and
        # 37,069 on draw 95; the matching limit skips nearly all of them.
        from equidim import covers

        stream = covers.iter_cover_masks
        count = [0]

        def counted(*args):
            for item in stream(*args):
                count[0] += 1
                yield item

        monkeypatch.setattr(covers, "iter_cover_masks", counted)
        clear_solver_caches()
        assert beta_star(hard_draws(draw)[-1]).value == 1
        assert count[0] == pulled


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

    def test_cold_request_solves_no_separate_ghat_cover(self):
        # Ĝ of C_14 is K_{7,7}; the stream's first cover has t(U) = 0, so
        # the staircase stops there, and β(Ĝ) is its one step's size.
        g = cycle_graph(14)
        # The fresh graph equals cached C_14 bases, so the caches are cleared.
        clear_solver_caches()
        result = xi_corona_structured(g, 2)
        assert result.value == 7 * 2 + 7
        assert equalizers.ghat_stats(g) == (7, 7)
        info = equalizers._staircase.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert [step[:2] for step in equalizers._staircase(g)] == [(7, 0)]

    @pytest.mark.parametrize("n_h", [1, 2, 3])
    def test_cold_request_pulls_one_cover(self, monkeypatch, n_h):
        # The first cover's split costs its floor, so the search stops
        # there; the stream's next cover is never pulled.
        from equidim import covers

        stream = covers.iter_cover_masks
        pulled = []

        def counted(*args):
            for item in stream(*args):
                pulled.append(item)
                yield item

        monkeypatch.setattr(covers, "iter_cover_masks", counted)
        clear_solver_caches()
        xi_corona_structured(chorded_path_graph(), n_h)
        assert len(pulled) == 1

    def test_staircase_stops_where_the_floor_reaches_the_least_t(self, monkeypatch):
        # α(Ĝ) = 5.  The first cover, of size 5, sets the least t(U) to 2,
        # and the next two (sizes 5 and 6) do not beat it.  The fourth has
        # size 7, so |U| - α(Ĝ) = 2 rules it out before t(U) is solved: three
        # min_cover_size calls, where solving it too would make four.
        from equidim import covers

        g = Graph(
            10, [(0, 1), (0, 2), (2, 6), (3, 8), (4, 5), (4, 6), (4, 9), (5, 6), (5, 8), (7, 8)]
        )
        solve = covers.min_cover_size
        solves = []

        def counted(adj, active):
            solves.append(active)
            return solve(adj, active)

        monkeypatch.setattr(covers, "min_cover_size", counted)
        clear_solver_caches()
        steps = equalizers._staircase(g)
        assert steps == ((5, 2, frozenset({0, 4, 6, 8, 9}), frozenset({1, 2, 3, 4, 5, 7, 9})),)
        assert equalizers.ghat_stats(g) == (5, 5)
        assert len(solves) == 3

    def test_cold_request_builds_no_layers_and_no_connectivity_flag(self):
        # The corona tables come from their own BFS pass, which also
        # rejects a disconnected graph, so neither of these is built.
        g = cycle_graph(14)
        clear_solver_caches()
        xi_corona_structured(g, 2)
        assert "pair_masks" not in g.__dict__
        assert "is_connected" not in g.__dict__

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

    def test_witness_lives_in_the_product(self):
        # The witness is written in the layout corona() builds; a minimum
        # witness stops equalizing without any one of its vertices.  The
        # copy graph's edges do not matter: the same witness equalizes the
        # product with K_{n(H)} copies.
        for n in range(2, 6):
            for g in all_connected_graphs(n):
                for n_h in (1, 2, 3):
                    result = xi_corona_structured(g, n_h)
                    product = corona(g, empty_graph(n_h))
                    witness = result.witness
                    assert is_distance_equalizer(product, witness)
                    assert is_distance_equalizer(corona(g, complete_graph(n_h)), witness)
                    assert len(witness) == result.value
                    for v in witness:
                        assert not is_distance_equalizer(product, witness - {v})


CORONA_ENTRY_POINTS = {
    "xi_corona_structured": lambda g, **kw: xi_corona_structured(g, 2, **kw),
    "beta_star": beta_star,
    "k_threshold": k_threshold,
}


@pytest.mark.parametrize("solve", CORONA_ENTRY_POINTS.values(), ids=CORONA_ENTRY_POINTS)
class TestCoronaPreconditions:
    def test_disconnected_rejected(self, solve):
        # Vertex 0 reaches every vertex but the last.
        with pytest.raises(GraphError, match="operation requires a connected graph"):
            solve(Graph(5, [(0, 1), (1, 2), (2, 3)]))

    def test_budget_is_checked_before_connectivity(self, solve):
        with pytest.raises(BudgetError, match="cap 4"):
            solve(Graph(5, [(0, 1)]), max_order=4)
        with pytest.raises(BudgetError, match="order 29"):
            solve(Graph(29))


#: Every public call that rejects a disconnected graph; where the call also
#: validates an argument, the argument here is invalid too, and the
#: connectivity error must win.
DISCONNECTED_CALLS = {
    "xi_bruteforce": xi_bruteforce,
    "xi_total": xi_total,
    "is_distance_equalizer": lambda g: is_distance_equalizer(g, {9}),
    "forward_equalized": lambda g: forward_equalized(
        g, ForwardPair(frozenset({0}), frozenset({1}))
    ),
    "xi_corona_oracle": lambda g: xi_corona_oracle(g, empty_graph(1)),
    "bisector": lambda g: bisector(g, 0, 9),
    "bisector_non_int": lambda g: bisector(g, 0.0, True),
    "empty_bisector_graph": empty_bisector_graph,
    "xi_corona_structured": lambda g: xi_corona_structured(g, 2),
    "k_threshold": k_threshold,
    "eccentricities": lambda g: g.eccentricities,
    "eccentricity2_case": lambda g: eccentricity2_case(g, 1),
    "two_coloring": two_coloring,
}


class TestConnectivityPrecondition:
    @pytest.mark.parametrize("call", DISCONNECTED_CALLS.values(), ids=DISCONNECTED_CALLS)
    def test_disconnected_rejected_before_arguments(self, call):
        # Vertex 0 reaches every vertex but the last.
        g = Graph(5, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(GraphError) as info:
            call(g)
        assert str(info.value) == "operation requires a connected graph"

    @pytest.mark.parametrize("solve", [xi_bruteforce, xi_total], ids=["xi", "xi_total"])
    def test_hitting_set_search_runs_no_separate_connectivity_bfs(self, solve):
        # The bisector masks read the layers from vertex 0, which already
        # answer the question.
        g = cycle_graph(9)
        solve(g)
        assert "is_connected" not in g.__dict__

    def test_bisector_rejects_a_large_graph_before_any_table(self):
        g = Graph(1024, [(0, 1)])
        with pytest.raises(GraphError, match="operation requires a connected graph"):
            bisector(g, 0, 1)
        assert "distances" not in g.__dict__
        assert "pair_masks" not in g.__dict__


#: Every public call that reads a vertex set through ``Graph.mask``.
VERTEX_SET_CALLS = {
    "is_distance_equalizer": is_distance_equalizer,
    "forward_equalized": lambda g, s: forward_equalized(
        g, ForwardPair(frozenset(s), frozenset(range(g.n)))
    ),
    "is_vertex_cover": is_vertex_cover,
}


@pytest.mark.parametrize("call", VERTEX_SET_CALLS.values(), ids=VERTEX_SET_CALLS)
@pytest.mark.parametrize("member", [1.5, "a", None, True])
def test_non_integer_vertex_rejected(fish, call, member):
    with pytest.raises(GraphError, match="is not an integer"):
        call(fish, [member])


class TestCopyOrder:
    def test_rejected_bool_order_leaves_the_cache_clean(self):
        # An empty staircase cache, so no full cache can hide a new entry.
        equalizers._staircase.cache_clear()
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (0, 5)])
        with pytest.raises(GraphError, match="copy order must be a positive integer"):
            xi_corona_structured(g, True)
        assert equalizers._staircase.cache_info().currsize == 0
        result = xi_corona_structured(g, 1)
        assert result.value == xi_corona_oracle(g, empty_graph(1)).value

    @pytest.mark.parametrize("n_h", [0, True, 2.5, -1])
    def test_bounds_and_formula_reject_before_any_search(self, n_h):
        g = cycle_graph(6)
        for formula in (
            bounds_report,
            bipartite_formula,
            universal_vertex_formula,
            eccentricity2_case,
            xi_equals_order_characterization,
        ):
            with pytest.raises(GraphError, match="copy order must be a positive integer"):
                formula(g, n_h)
        with pytest.raises(GraphError, match="copy order must be a positive integer"):
            join_formula(g, g, n_h)
        assert g.__dict__.keys() <= {"n", "edges", "labels", "adjacency_bits"}
        with pytest.raises(GraphError, match="copy order must be a positive integer"):
            closed_formula(FamilySpec("cycle", (6,)), n_h)


class TestCoronaCache:
    @pytest.mark.parametrize("n_h", [True, 1.0, 2.0])
    def test_copy_order_checked_on_a_cache_hit(self, fish, n_h):
        # True == 1.0 == 1 and 2.0 == 2, yet neither is a copy order, even
        # with the staircase of fish cached.
        xi_corona_structured(fish, 1)
        xi_corona_structured(fish, 2)
        with pytest.raises(GraphError, match="copy order must be a positive integer"):
            xi_corona_structured(fish, n_h)

    def test_one_search_whatever_the_budget_argument(self, fish):
        clear_solver_caches()
        xi_corona_structured(fish, 2)
        xi_corona_structured(fish, 2, None)
        xi_corona_structured(fish, 2, max_order=fish.n)
        assert equalizers._staircase.cache_info().misses == 1

    def test_budget_checked_on_a_cache_hit(self, fish):
        xi_corona_structured(fish, 2)
        with pytest.raises(BudgetError, match=f"cap {fish.n - 1}"):
            xi_corona_structured(fish, 2, max_order=fish.n - 1)

    def test_a_dropped_result_leaves_no_witness_held(self):
        # The witness has 100,010 product vertices (about 7 MiB); only the
        # staircase of P_20, a few small sets, stays cached.
        def solve():
            result = xi_corona_structured(path_graph(20), 10**4)
            assert result.value == len(result.witness) == 100_010

        clear_solver_caches()
        assert traced_growth(solve) < 2**20


#: The solver result caches, which key on the graph, whose labels take no
#: part in its identity; the staircase cache serves ``beta_star`` and
#: ``xi_corona_structured``, and no corona result is cached.
SOLVER_CACHES = {
    "xi": equalizers._xi_solve,
    "staircase": equalizers._staircase,
}

#: Calls rejected for budget, copy order or connectivity.
REJECTED_CALLS = {
    "xi-budget": lambda: xi_bruteforce(path_graph(6), max_order=5),
    "xi-disconnected": lambda: xi_bruteforce(Graph(6, path_graph(5).edges)),
    "ghat-budget": lambda: equalizers.ghat_stats(path_graph(6), max_order=5),
    "ghat-disconnected": lambda: equalizers.ghat_stats(Graph(6, path_graph(5).edges)),
    "corona-budget": lambda: xi_corona_structured(path_graph(6), 2, max_order=5),
    "corona-copy-order": lambda: xi_corona_structured(path_graph(6), 0),
    "corona-disconnected": lambda: xi_corona_structured(Graph(6, path_graph(5).edges), 2),
}


class TestSolverCaches:
    def test_each_holds_at_most_4096_entries(self):
        for cache in SOLVER_CACHES.values():
            assert cache.cache_info().maxsize == 4096

    def test_corona_names_the_staircase_cache(self):
        assert xi_corona_structured.cache_info == beta_star.cache_info
        assert xi_corona_structured.cache_clear == beta_star.cache_clear
        assert beta_star.cache_info == equalizers._staircase.cache_info

    def test_parsed_graph_shares_entries_with_its_unlabelled_twin(self, fish):
        # The edge list names the fish's vertices 1..6.
        parsed = parse_edge_list(format_edge_list(fish))
        twin = Graph(6, fish.edges)
        assert parsed.labels == tuple(range(1, 7)) and twin.labels is None
        # Labels are display only: the two are one graph to every cache.
        assert parsed == twin and hash(parsed) == hash(twin)
        clear_solver_caches()
        results = [
            (xi_bruteforce(g), equalizers.ghat_stats(g), xi_corona_structured(g, 2))
            for g in (parsed, twin)
        ]
        assert results[0] == results[1]
        # The parsed graph's ξ and ghat_stats fill one entry each; its
        # corona result and all three of the twin's calls read them.
        hits = {"xi": 1, "staircase": 3}
        for name, cache in SOLVER_CACHES.items():
            info = cache.cache_info()
            assert (info.currsize, info.misses, info.hits) == (1, 1, hits[name]), name

    def test_a_parsed_graph_builds_its_corona_tables_once(self, fish, monkeypatch):
        row_builds = count_table_builds(monkeypatch)
        clear_solver_caches()  # the parse memo too, so the graph is fresh
        parsed = parse_edge_list(format_edge_list(fish))
        assert forward_equalized(parsed, ForwardPair(frozenset(range(6)), frozenset()))
        assert xi_corona_structured(parsed, 2).value == 8
        # The staircase keys on the parsed graph, so it reads the same rows.
        assert len(row_builds) == 1 and row_builds[0] is parsed

    def test_beta_star_keys_on_the_unlabelled_graph(self, fish):
        # fish names its vertices 1..6, as the parsed edge list does.
        parsed = parse_edge_list("6 8\n1 3\n3 2\n2 4\n4 1\n1 2\n3 5\n5 6\n6 3\n")
        assert parsed == fish and parsed is not fish
        clear_solver_caches()
        results = {
            beta_star(fish),
            beta_star(fish, max_order=8),
            beta_star(fish, None),
            beta_star(parsed),
            beta_star(Graph(6, fish.edges)),
        }
        assert len(results) == 1
        info = equalizers._staircase.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
        # The budget check runs before the cache.
        with pytest.raises(BudgetError):
            beta_star(fish, max_order=5)

    def test_oracle_leaves_the_xi_cache_alone(self):
        g = cycle_graph(3)
        xi_bruteforce(g)
        before = equalizers._xi_solve.cache_info()
        assert xi_corona_oracle(g, path_graph(2)).value == 3
        assert equalizers._xi_solve.cache_info() == before

    @pytest.mark.parametrize("call", REJECTED_CALLS.values(), ids=REJECTED_CALLS)
    def test_rejected_call_caches_nothing(self, call):
        clear_solver_caches()
        with pytest.raises((BudgetError, GraphError)):
            call()
        for name, cache in SOLVER_CACHES.items():
            assert cache.cache_info().currsize == 0, name


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_value_alone_matches_the_oracle(self, n):
        hs = [empty_graph(1), empty_graph(2), path_graph(2)]
        if n <= 3:
            hs += [path_graph(3), empty_graph(3), complete_graph(3)]
        for g in all_connected_graphs(n):
            for h in hs:
                assert equalizers._oracle_value(g, h) == xi_corona_oracle(g, h).value, g.edges

    def test_value_alone_checks_the_budget_before_the_product(self, monkeypatch):
        g, h = cycle_graph(5), complete_graph(2)
        with pytest.raises(BudgetError) as expected:
            xi_corona_oracle(g, h)

        def no_product(*args):
            raise AssertionError("product built before the budget check")

        monkeypatch.setattr(equalizers, "corona", no_product)
        with pytest.raises(BudgetError) as got:
            equalizers._oracle_value(g, h)
        assert str(got.value) == str(expected.value)

    def test_witness_projections_are_covers(self):
        g = cycle_graph(4)
        result = xi_corona_oracle(g, empty_graph(2))
        ghat = empty_bisector_graph(g).graph
        # Vertex j of the copy over base vertex i is n + 2i + j.
        upper = frozenset((v - g.n) // 2 for v in result.witness if v >= g.n)
        lower = frozenset(v for v in result.witness if v < g.n)
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
    upper, lower = result.decomposition
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
        upper, lower = result.decomposition
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
        assert result.decomposition == (labelset(g, *upper), labelset(g, *lower))

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
    def test_builds_ghat_and_its_cover_once(self, monkeypatch):
        from equidim import bisectors, covers

        # A fresh graph with cold result caches, so nothing is reused.
        g = chorded_path_graph()
        clear_solver_caches()
        builds = []
        solves = []
        # One BFS pass builds the forward masks and the Ĝ rows together.
        row_builds = count_table_builds(monkeypatch)
        build = bisectors.empty_bisector_graph
        solve = covers.min_cover_size

        def counted_build(graph):
            builds.append(graph)
            return build(graph)

        def counted_solve(adj, active):
            solves.append((adj, active))
            return solve(adj, active)

        monkeypatch.setattr(bisectors, "empty_bisector_graph", counted_build)
        monkeypatch.setattr(covers, "min_cover_size", counted_solve)
        line = k_threshold(g)
        assert (line.k, line.threshold, line.slope) == (4, 3, 4)
        # The caches key on g itself, which builds the rows once.
        assert len(row_builds) == 1 and row_builds[0] is g
        # No Ĝ ``Graph`` is built: the search reads the rows.
        assert builds == []
        # β(Ĝ) is the size of the staircase's first cover, so Ĝ is never
        # sized whole, and one staircase serves the slope, β* and the probe.
        full_ghat = (g.ghat_rows, (1 << g.n) - 1)
        assert solves.count(full_ghat) == 0
        info = equalizers._staircase.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_fish(self, fish):
        line = k_threshold(fish)
        assert (line.k, line.threshold, line.slope) == (6, 2, 1)
        assert line._fields == ("k", "threshold", "slope")

    def test_pendant_triangle(self, pendant_triangle):
        line = k_threshold(pendant_triangle)
        assert (line.k, line.slope) == (7, 3)

    def test_odd_cycle_constant(self):
        line = k_threshold(cycle_graph(5))
        assert (line.k, line.slope) == (5, 0)

    @pytest.mark.parametrize("n, k, threshold, slope", [(17, 9, 9, 8), (28, 14, 14, 14)])
    def test_exact_line_up_to_the_cover_cap(self, n, k, threshold, slope):
        # Every order the cover cap of 28 accepts gets the exact threshold;
        # the line it reports must hold past it.
        g = path_graph(n)
        assert k_threshold(g) == ThresholdLine(k, threshold, slope)
        for n_h in range(threshold + 1, threshold + 4):
            assert xi_corona_structured(g, n_h).value == slope * n_h + k

    def test_line_is_exact_beyond_threshold(self, fish, chorded_path):
        for g in (fish, chorded_path):
            line = k_threshold(g)
            for n_h in range(line.threshold + 1, line.threshold + 4):
                assert xi_corona_structured(g, n_h).value == line.slope * n_h + line.k
            for n_h in range(1, line.threshold + 1):
                assert xi_corona_structured(g, n_h).value <= line.slope * n_h + line.k
