import random

import pytest

import oracles
from conftest import clear_solver_caches
from equidim import (
    BudgetError,
    EquidimResult,
    FamilySpec,
    Graph,
    GraphError,
    beta_star,
    bipartite_formula,
    bounds_report,
    closed_formula,
    eccentricity2_case,
    join,
    join_formula,
    universal_vertex_formula,
    xi_corona_structured,
    xi_equals_order_characterization,
)
from equidim import equalizers
from equidim.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    generate,
    path_graph,
    wheel_graph,
)
from equidim.theory import (
    all_connected_graphs,
    random_connected_bipartite,
    random_connected_graph,
    seeded_corpus,
    two_coloring,
)


class TestBoundsReport:
    def test_fish_nh1(self, fish):
        r = bounds_report(fish, 1)
        assert (r.lower, r.upper, r.exact) == (6, 7, 6)
        assert r.floor == 6 and r.lower_weak == 6

    def test_one_corona_search_per_copy_order(self, fish):
        # β(Ĝ), β* and the exact value are all read off one staircase, and
        # another copy order reads it again: no copy order runs a search.
        clear_solver_caches()
        bounds_report(fish, 1)
        info = equalizers._staircase.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        bounds_report(fish, 3)
        info = equalizers._staircase.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 5, 1)

    def test_a_broken_chain_is_refused(self, fish, monkeypatch):
        # An overlap of 100 lifts the lower bound past the exact value.
        monkeypatch.setattr(equalizers, "beta_star", lambda g: EquidimResult(100, frozenset()))
        with pytest.raises(AssertionError, match="bound chain violated"):
            bounds_report(fish, 2)

    def test_fish_nh3(self, fish):
        r = bounds_report(fish, 3)
        assert (r.lower, r.upper, r.exact) == (8, 9, 9)

    def test_chorded_path_nh1(self, chorded_path):
        assert bounds_report(chorded_path, 1).exact == 8

    def test_chain_on_examples(self, fish, chorded_path, pendant_triangle, k5_leaves):
        for g in (fish, chorded_path, pendant_triangle, k5_leaves):
            for n_h in (1, 2, 3):
                r = bounds_report(g, n_h)
                assert r.floor <= r.exact
                assert r.lower_weak <= r.lower <= r.exact <= r.upper <= r.upper_via_xi

    def test_lower_bound_up_to_the_cover_cap(self):
        # β* is solved at every order the cover cap accepts; ξ (cap 18)
        # bounds at 17 and is skipped at 28.
        r = bounds_report(path_graph(17), 2)
        assert (r.lower, r.exact, r.upper_via_xi) == (25, 25, 41)
        r = bounds_report(path_graph(28), 2)
        assert (r.lower, r.exact, r.upper_via_xi) == (42, 42, None)

    def test_over_the_cover_cap_is_rejected_before_any_distance(self):
        g = path_graph(29)
        with pytest.raises(BudgetError, match="cap 28"):
            bounds_report(g, 1)
        assert "distances" not in vars(g)


class TestClosedFormula:
    def test_hypercube(self):
        assert closed_formula(FamilySpec("hypercube", (3,)), 2).value == 12

    def test_path(self):
        assert closed_formula(FamilySpec("path", (5,)), 3).value == 9

    def test_even_cycle(self):
        assert closed_formula(FamilySpec("cycle", (6,)), 1).value == 6

    def test_complete_small(self):
        assert closed_formula(FamilySpec("complete", (2,)), 7).value == 8
        assert closed_formula(FamilySpec("complete", (5,)), 7).value == 5

    def test_multipartite_sum(self):
        assert closed_formula(FamilySpec("complete-multipartite", (1, 2, 2)), 9).value == 5

    def test_bistar_flagged_with_both_values(self):
        f = closed_formula(FamilySpec("bistar", (2, 3)), 2)
        assert f.alternate_value is not None
        assert f.value == 2 * 2 + 3
        assert f.alternate_value == 3 * 2 + 4

    def test_other_clauses_not_flagged(self):
        assert closed_formula(FamilySpec("wheel", (5,)), 1).alternate_value is None

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("empty", (3,)),
            FamilySpec("fish"),
            FamilySpec("path", (1,)),
            FamilySpec("complete", (1,)),
            FamilySpec("complete-bipartite", (3, 2)),
            FamilySpec("path", (1, 2)),
            FamilySpec("complete-bipartite", (2,)),
            FamilySpec("complete-multipartite", ()),
        ],
    )
    def test_uncovered_or_invalid_rejected(self, spec):
        with pytest.raises(GraphError):
            closed_formula(spec, 1)

    def test_every_clause_matches_the_solver_at_larger_orders(self):
        # 232 members, orders up to the cover cap of 28; each bistar is
        # checked against its bipartite-rule value.
        specs = [FamilySpec(name, (n,)) for name in ("path", "complete") for n in range(2, 29)]
        specs += [FamilySpec("cycle", (n,)) for n in range(3, 29)]
        specs += [FamilySpec("wheel", (n,)) for n in range(4, 29)]
        specs += [FamilySpec("hypercube", (d,)) for d in range(1, 5)]
        specs += [
            FamilySpec("complete-bipartite", (r, s)) for r in range(1, 8) for s in range(r, 14)
        ]
        specs += [
            FamilySpec("complete-multipartite", sizes)
            for sizes in (
                (1, 1, 1),
                (1, 2, 2),
                (2, 2, 2),
                (1, 1, 6),
                (3, 3, 3),
                (1, 2, 3, 4),
                (2, 3, 4, 5),
                (1, 1, 1, 1, 1, 1),
            )
        ]
        bistars = [FamilySpec("bistar", (r, s)) for r in range(1, 10) for s in range(r, 10)]
        assert len(specs) + len(bistars) == 232
        for spec in specs + bistars:
            g = generate(spec)
            for n_h in (1, 2, 3, 5, 9):
                f = closed_formula(spec, n_h)
                expected = f.alternate_value if f.alternate_value is not None else f.value
                assert xi_corona_structured(g, n_h).value == expected, (spec, n_h)


class TestCharacterization:
    def test_fish_attains_floor_only_for_single_copies(self, fish):
        assert xi_equals_order_characterization(fish, 1)[0] is True
        assert xi_equals_order_characterization(fish, 2)[0] is False

    def test_odd_cycle_always(self):
        for n_h in (1, 2, 5):
            predicted, clause = xi_equals_order_characterization(cycle_graph(7), n_h)
            assert predicted and "no edges" in clause

    def test_agrees_with_exact_value_on_small_census(self):
        for g in all_connected_graphs(4):
            for n_h in (1, 2, 3):
                predicted, _ = xi_equals_order_characterization(g, n_h)
                assert predicted == (xi_corona_structured(g, n_h).value == g.n)


class TestBipartiteFormula:
    def test_complete_bipartite(self):
        assert bipartite_formula(complete_bipartite_graph(3, 5), 2) == 11

    def test_path_four(self):
        assert bipartite_formula(path_graph(4), 1) == 4

    def test_square_is_dimension_two_hypercube(self):
        assert bipartite_formula(cycle_graph(4), 3) == 8

    def test_non_bipartite_rejected(self):
        with pytest.raises(GraphError, match="not bipartite"):
            bipartite_formula(cycle_graph(5), 1)

    def test_matches_structured_solver(self):
        rng = random.Random(5150)
        for _ in range(15):
            g = random_connected_bipartite(rng, rng.randint(2, 9))
            for n_h in (1, 2, 3, 4):
                assert bipartite_formula(g, n_h) == xi_corona_structured(g, n_h).value


class TestJoinFormula:
    def test_wheel(self):
        assert join_formula(Graph(1), cycle_graph(4), 1) == 5

    def test_two_edges(self):
        assert join_formula(complete_graph(2), complete_graph(2), 3) == 4

    def test_p3_with_isolated_side(self):
        # The P3 side has no isolated vertices, so the formula applies.
        assert join_formula(path_graph(3), empty_graph(2), 2) == 5
        joined = join(path_graph(3), empty_graph(2))
        assert xi_corona_structured(joined, 2).value == 5

    def test_both_sides_isolated_rejected(self):
        with pytest.raises(GraphError, match="isolated"):
            join_formula(empty_graph(1), empty_graph(2), 1)

    def test_matches_structured_on_small_joins(self):
        cases = [
            (Graph(1), cycle_graph(4)),
            (complete_graph(2), complete_graph(2)),
            (path_graph(2), empty_graph(3)),
        ]
        for g1, g2 in cases:
            joined = join(g1, g2)
            for n_h in (1, 2, 3):
                assert xi_corona_structured(joined, n_h).value == g1.n + g2.n

    def test_matches_structured_on_random_joins(self):
        # Sides of order 1-7, a quarter of them edgeless; the formula holds
        # whenever one side has no isolated vertex and refuses otherwise.
        rng = random.Random(3)

        def side():
            n = rng.randint(1, 7)
            p = 0.0 if rng.random() < 0.25 else 0.5
            return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])

        checked = 0
        for _ in range(300):
            g1, g2 = side(), side()
            joined = join(g1, g2)
            isolated = all(min(g.degree(v) for v in range(g.n)) == 0 for g in (g1, g2))
            for n_h in (1, 2, 3):
                if isolated:
                    with pytest.raises(GraphError, match="isolated"):
                        join_formula(g1, g2, n_h)
                else:
                    assert xi_corona_structured(joined, n_h).value == join_formula(g1, g2, n_h)
                    checked += 1
        assert checked > 500


class TestEccentricity2:
    def test_star_center(self):
        star = complete_bipartite_graph(1, 4)
        for n_h in (1, 2, 3):
            report = eccentricity2_case(star, n_h)
            assert report.upper == n_h + 4
            assert report.exact == n_h + 4
            assert xi_corona_structured(star, n_h).value == n_h + 4

    def test_absent_when_no_low_eccentricity_vertex(self):
        assert eccentricity2_case(path_graph(7), 1) is None

    def test_all_low_eccentricity_cycle_certifies_zero_overlap(self):
        g = cycle_graph(5)
        assert eccentricity2_case(g, 1) is not None
        assert beta_star(g).value == 0

    def test_k5_leaves_clique_vertex(self, k5_leaves):
        for n_h in (1, 2):
            report = eccentricity2_case(k5_leaves, n_h)
            assert report.exact == 5 * n_h + 5
            assert xi_corona_structured(k5_leaves, n_h).value == 5 * n_h + 5


class TestUniversalVertex:
    def test_wheel_min_degree_two(self):
        for n_h in (1, 4):
            assert universal_vertex_formula(wheel_graph(6), n_h) == 6

    def test_star_min_degree_one(self):
        assert universal_vertex_formula(complete_bipartite_graph(1, 3), 2) == 5

    def test_complete(self):
        assert universal_vertex_formula(complete_graph(4), 7) == 4

    def test_reads_degrees_and_runs_no_bfs(self):
        g = complete_bipartite_graph(1, 4)
        assert universal_vertex_formula(g, 2) == 6
        assert "distances" not in g.__dict__
        assert "is_connected" not in g.__dict__

    def test_no_universal_vertex_rejected(self):
        with pytest.raises(GraphError, match="universal"):
            universal_vertex_formula(cycle_graph(4), 1)
        with pytest.raises(GraphError, match="universal"):
            universal_vertex_formula(Graph(1), 1)

    def test_matches_structured(self):
        for g in (wheel_graph(5), complete_bipartite_graph(1, 3), complete_graph(3)):
            for n_h in (1, 2, 3):
                assert (
                    universal_vertex_formula(g, n_h)
                    == xi_corona_structured(g, n_h).value
                )


class TestSamplers:
    def test_corpus_is_seed_deterministic(self):
        a = seeded_corpus(17)
        b = seeded_corpus(17)
        assert a == b
        c = seeded_corpus(18)
        assert a != c

    def test_corpus_members_connected_and_bounded(self):
        corpus = seeded_corpus(3)
        assert len(corpus) == 50
        for g in corpus:
            assert g.is_connected and 4 <= g.n <= 10

    def test_bipartite_sampler(self):
        rng = random.Random(99)
        for _ in range(10):
            g = random_connected_bipartite(rng, rng.randint(2, 10))
            assert g.is_connected
            two_coloring(g)

    def test_single_sampler_rejects_bad_order(self):
        with pytest.raises(GraphError):
            random_connected_graph(random.Random(0), 0, 0.5)

    @pytest.mark.parametrize(
        "sample",
        [lambda: random_connected_bipartite(random.Random(0), 0), lambda: all_connected_graphs(0)],
        ids=["bipartite", "census"],
    )
    def test_other_samplers_reject_order_zero(self, sample):
        with pytest.raises(GraphError, match="^order must be positive, got 0$"):
            sample()

    def test_sampler_gives_up_after_its_tries(self):
        message = r"^no connected sample after 5 tries \(n=3, p=0\.0\)$"
        with pytest.raises(GraphError, match=message):
            random_connected_graph(random.Random(0), 3, 0.0, max_tries=5)

    def test_bipartite_sampler_gives_up_after_its_tries(self):
        # One vertex on the left and no edge drawn: never connected.
        class NoEdges:
            def randint(self, lo, hi):
                return lo

            def random(self):
                return 0.99

        message = r"^no connected bipartite sample after 10000 tries \(n=3\)$"
        with pytest.raises(GraphError, match=message):
            random_connected_bipartite(NoEdges(), 3)

    def test_census_counts(self):
        assert [len(all_connected_graphs(n)) for n in (1, 2, 3, 4)] == [1, 1, 4, 38]


def test_two_coloring_orders_parts_big_first():
    big, small = two_coloring(complete_bipartite_graph(2, 5))
    assert len(big) == 5 and len(small) == 2
    big, small = two_coloring(generate(FamilySpec("hypercube", (2,))))
    assert len(big) == len(small) == 2


class TestTwoColoring:
    @staticmethod
    def check(g):
        """two_coloring(g) against the distance-parity reference."""
        expected = oracles.bipartition(g.n, g.edges)
        if isinstance(expected, str):
            with pytest.raises(GraphError, match=expected):
                two_coloring(g)
            return
        even, odd = map(frozenset, expected)
        # Vertex 0's side comes first on a tie.
        assert two_coloring(g) == ((even, odd) if len(even) >= len(odd) else (odd, even))

    def test_matches_reference_on_all_small_connected_graphs(self):
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                self.check(g)

    def test_matches_reference_on_bipartite_samples(self):
        rng = random.Random(4)
        for _ in range(200):
            self.check(random_connected_bipartite(rng, rng.randint(1, 16)))

    @pytest.mark.parametrize(
        "g, message",
        [
            (Graph(4, [(0, 1), (2, 3)]), "connected"),
            # A triangle and a lone vertex: connectivity is checked first.
            (Graph(4, [(0, 1), (1, 2), (0, 2)]), "connected"),
            (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), "not bipartite"),
            # The odd cycle sits far from vertex 0.
            (Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)]), "not bipartite"),
        ],
    )
    def test_errors_match_reference(self, g, message):
        assert oracles.bipartition(g.n, g.edges) == message
        self.check(g)
