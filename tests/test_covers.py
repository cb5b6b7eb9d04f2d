import random
from itertools import combinations, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import connected_graphs, labelset, random_graph
from equidim import (
    BudgetError,
    Graph,
    GraphError,
    clique_number,
    empty_bisector_graph,
    independence_number,
    is_vertex_cover,
    vertex_cover_number,
)
from equidim.covers import (
    _clique_lower_bound,
    iter_cover_masks,
    lexmin_cover,
    min_cover_size,
)
from equidim.equalizers import ghat_stats
from equidim.families import (
    FamilySpec,
    chorded_path_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    generate,
    path_graph,
)


@pytest.fixture(scope="module")
def fish_ghat(fish):
    return empty_bisector_graph(fish).graph


class TestIsVertexCover:
    def test_complete_bipartite_parts(self):
        g = complete_bipartite_graph(2, 2)
        assert is_vertex_cover(g, {0, 1})
        assert is_vertex_cover(g, {2, 3})

    def test_single_vertex_fails_on_c4(self):
        assert not is_vertex_cover(cycle_graph(4), {0})

    def test_fish_ghat_single_cover(self, fish, fish_ghat):
        assert is_vertex_cover(fish_ghat, labelset(fish, 4))

    def test_rejects_foreign_vertices(self):
        with pytest.raises(GraphError, match="outside"):
            is_vertex_cover(cycle_graph(3), {5})


class TestVertexCoverNumber:
    def test_fish_ghat(self, fish, fish_ghat):
        result = vertex_cover_number(fish_ghat)
        assert result.value == 1
        assert result.witness == labelset(fish, 4)

    def test_chorded_path_ghat(self):
        g = chorded_path_graph()
        ghat = empty_bisector_graph(g).graph
        assert vertex_cover_number(ghat).value == 4

    def test_k5_leaves_ghat(self, k5_leaves):
        ghat = empty_bisector_graph(k5_leaves).graph
        assert vertex_cover_number(ghat).value == 5

    def test_budget_cap(self):
        with pytest.raises(BudgetError, match="out of budget"):
            vertex_cover_number(empty_graph(29))
        vertex_cover_number(empty_graph(28))
        with pytest.raises(BudgetError):
            vertex_cover_number(empty_graph(12), max_order=11)

    def test_matches_subset_scan_on_corpus(self):
        rng = random.Random(7011)
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
            size, witness = oracles.min_vertex_cover(n, g.edges)
            result = vertex_cover_number(g)
            assert result.value == size
            assert result.witness == frozenset(witness)

    def test_sparse_sixteen_vertex_instances(self):
        rng = random.Random(88)
        for _ in range(5):
            g = random_graph(rng, 16, 0.15)
            size, _ = oracles.min_vertex_cover(16, g.edges)
            assert vertex_cover_number(g).value == size


class TestIndependenceNumber:
    def test_fish_ghat(self, fish_ghat):
        assert independence_number(fish_ghat).value == 5

    def test_pendant_triangle_ghat(self, pendant_triangle):
        ghat = empty_bisector_graph(pendant_triangle).graph
        assert independence_number(ghat).value == 5

    def test_triangle(self):
        assert independence_number(complete_graph(3)).value == 1

    def test_witness_is_the_lexicographically_largest(self):
        # The complement of the lex-smallest minimum cover; among sets of
        # one size, complements reverse lexicographic order.  The clique
        # witness is the lex-smallest, as every other optimum is.
        assert independence_number(path_graph(4)).witness == {1, 3}
        assert independence_number(cycle_graph(4)).witness == {1, 3}
        assert clique_number(cycle_graph(4)).witness == {0, 1}

    @given(connected_graphs(max_n=9))
    @settings(max_examples=50)
    def test_gallai_identity_and_witness(self, g):
        alpha = independence_number(g)
        beta = vertex_cover_number(g)
        assert alpha.value + beta.value == g.n
        assert alpha.witness == frozenset(range(g.n)) - beta.witness
        assert alpha.value == oracles.max_independent_set_size(g.n, g.edges)


class TestCliqueNumber:
    def test_k5_leaves(self, k5_leaves):
        result = clique_number(k5_leaves)
        assert result.value == 5
        assert result.witness == labelset(k5_leaves, 1, 2, 3, 4, 5)

    def test_c5(self):
        assert clique_number(cycle_graph(5)).value == 2

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_complete(self, n):
        assert clique_number(complete_graph(n)).value == n

    def test_matches_subset_scan(self):
        rng = random.Random(909)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice((0.3, 0.6)))
            result = clique_number(g)
            assert result.value == oracles.max_clique(n, g.edges)[0]
            assert all(e in g.edges for e in combinations(sorted(result.witness), 2))

    def test_witness_is_lexicographically_first(self):
        rng = random.Random(515)
        for _ in range(25):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, 0.5)
            result = clique_number(g)
            first = next(
                combo
                for combo in combinations(range(n), result.value)
                if all(e in g.edges for e in combinations(combo, 2))
            )
            assert result.witness == frozenset(first)


def _min_cover_containing(g, forced, restrict):
    """``(size, lex-min witness)`` of the minimum cover of the subgraph on
    ``restrict`` that holds ``forced``, composed as the corona search's t(U)
    subproblem composes it."""
    adj, forced, restrict = g.adjacency_bits, g.mask(forced), g.mask(restrict)
    size = forced.bit_count() + min_cover_size(adj, restrict & ~forced)
    return size, frozenset(_members(lexmin_cover(adj, restrict, forced, size)))


class TestMinCoverContaining:
    def test_triangle_forced_vertex(self):
        got = _min_cover_containing(complete_graph(3), {0}, {0, 1, 2})
        assert got == (2, frozenset({0, 1}))

    def test_fish_ghat_tail(self, fish, fish_ghat):
        # Frozen from a subset scan over the subsets of {4, 5, 6}.
        restrict = labelset(fish, 4, 5, 6)
        got = _min_cover_containing(fish_ghat, frozenset(), restrict)
        assert got == (1, labelset(fish, 4))

    def test_forced_equals_restriction(self):
        got = _min_cover_containing(cycle_graph(5), {1, 2, 3}, {1, 2, 3})
        assert got == (3, frozenset({1, 2, 3}))

    @given(connected_graphs(max_n=7))
    @settings(max_examples=40)
    def test_matches_definition(self, g):
        rng = random.Random(g.n * 1000 + g.m)
        restrict = frozenset(v for v in range(g.n) if rng.random() < 0.7)
        forced = frozenset(v for v in restrict if rng.random() < 0.3)
        size, mask = oracles.min_cover_within(g.edges, g.mask(restrict), g.mask(forced))
        assert _min_cover_containing(g, forced, restrict) == (size, frozenset(_members(mask)))


def _members(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _labelled_graphs(max_n):
    """``(n, edges, adjacency rows)`` of every labelled graph of order at
    most ``max_n``."""
    for n in range(max_n + 1):
        slots = list(combinations(range(n), 2))
        for chosen in range(1 << len(slots)):
            edges = [e for i, e in enumerate(slots) if chosen >> i & 1]
            adj = [0] * n
            for u, v in edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            yield n, edges, tuple(adj)


def _forced_in(universe):
    # A fixed nonempty subset of a nonempty universe.
    return universe & 0b100100 or universe & -universe


class TestSubgraphSolvers:
    """``min_cover_size`` and ``lexmin_cover`` on proper induced subgraphs,
    reading the whole graph's rows, against the constrained subset scan.
    The whole-graph case is checked beside the cover stream."""

    def test_every_labelled_graph_up_to_order_six(self):
        for n, edges, adj in _labelled_graphs(6):
            full = (1 << n) - 1
            for universe in (full & 0b101101, full & 0b011010):
                size, _ = oracles.min_cover_within(edges, universe)
                assert min_cover_size(adj, universe) == size, (edges, universe)
            universe = full & 0b101101
            if universe:
                forced = _forced_in(universe)
                size, mask = oracles.min_cover_within(edges, universe, forced)
                got = lexmin_cover(adj, universe, forced, size)
                assert got == mask, (edges, universe, forced)


class TestFrozenGhatCovers:
    """β(Ĝ) and the lex-min minimum cover of Ĝ, recorded from the solver
    that found them by a per-vertex branch and bound before covers were read
    off the matching bound.  Each ladder graph is relabelled by
    ``random.Random(i)`` for its index i."""

    LADDER = [
        (("cycle", (14,)), 7, 0xB4B),
        (("cycle", (16,)), 8, 0x92CD),
        (("cycle", (18,)), 9, 0x3381B),
        (("cycle", (20,)), 10, 0xCE155),
        (("path", (14,)), 7, 0x2275),
        (("path", (16,)), 8, 0x1E55),
        (("path", (18,)), 9, 0x29A71),
        (("path", (20,)), 10, 0x4956D),
        (("hypercube", (4,)), 8, 0xE097),
        (("complete-bipartite", (8, 10)), 8, 0x1325A),
    ]

    @pytest.mark.parametrize("i", range(len(LADDER)))
    def test_corona_ladder_graphs(self, i):
        (name, params), beta, witness = self.LADDER[i]
        g = _relabelled(generate(FamilySpec(name, params)), i)
        full = (1 << g.n) - 1
        assert ghat_stats(g)[0] == beta
        assert lexmin_cover(g.ghat_rows, full, 0, beta) == witness
        result = vertex_cover_number(empty_bisector_graph(g).graph)
        assert (result.value, result.witness) == (beta, frozenset(_members(witness)))

    def test_k14_with_a_leaf_per_vertex(self):
        # Ĝ is the perfect matching {i, 14 + i} on 28 vertices.
        g = Graph(28, list(complete_graph(14).edges) + [(i, 14 + i) for i in range(14)])
        full = (1 << 28) - 1
        assert g.ghat_rows == tuple(1 << 14 + i for i in range(14)) + tuple(
            1 << i for i in range(14)
        )
        assert ghat_stats(g)[0] == 14
        assert lexmin_cover(g.ghat_rows, full, 0, 14) == 0x3FFF
        assert next(iter_cover_masks(g.ghat_rows, 28)) == (14, 0x3FFF)


def _clique_chain(k, count):
    # ``count`` copies of K_k in a row, each joined to the next by one edge.
    edges = []
    for c in range(count):
        off = c * k
        edges += [(off + a, off + b) for a, b in combinations(range(k), 2)]
        if c:
            edges.append((off - 1, off))
    return Graph(k * count, edges)


class TestFrozenPlainGraphs:
    """``vertex_cover_number`` and ``clique_number`` with their witnesses
    (as masks) on graphs of order 25-28, recorded from the solvers that
    found them by a max-degree branch and bound and a pivoting clique
    search."""

    CASES = [
        ("K3x9", lambda: _clique_chain(3, 9), (18, 0x36DB6DB), (3, 0x7)),
        ("K4x7", lambda: _clique_chain(4, 7), (21, 0x7777777), (4, 0xF)),
        ("K5x5", lambda: _clique_chain(5, 5), (20, 0xF7BDEF), (5, 0x1F)),
        ("K7x4", lambda: _clique_chain(7, 4), (24, 0x7EFDFBF), (7, 0x7F)),
        ("G(28,0.95)", lambda: random_graph(random.Random(2895), 28, 0.95),
         (25, 0xFFFFEFA), (19, 0x65DDEDB)),
    ]

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_values_and_witnesses(self, case):
        _, build, cover, clique = case
        g = build()
        for got, (value, mask) in (
            (vertex_cover_number(g), cover),
            (clique_number(g), clique),
        ):
            assert (got.value, got.witness) == (value, frozenset(_members(mask)))


def _capped_stream(g, max_size):
    # The stream's sizes never fall, so its covers of at most max_size
    # vertices are the prefix before the first larger one.
    stream = iter_cover_masks(g.adjacency_bits, g.n)
    return list(takewhile(lambda item: item[0] <= max_size, stream))


def _cover_sets(g, max_size):
    return [frozenset(_members(mask)) for _, mask in _capped_stream(g, max_size)]


class TestEnumerateCovers:
    """The cover stream on named graphs, as vertex sets."""

    def test_fish_ghat_unique_minimum(self, fish, fish_ghat):
        assert _cover_sets(fish_ghat, 1) == [labelset(fish, 4)]

    def test_edgeless_size_zero(self):
        assert _cover_sets(empty_graph(3), 0) == [frozenset()]

    def test_c4_opposite_pairs(self):
        # Frozen by enumerating all 2-subsets of the 4-cycle.
        got = _cover_sets(cycle_graph(4), 2)
        assert got == [frozenset({0, 2}), frozenset({1, 3})]

    def test_stream_order_contract(self):
        seen = _cover_sets(cycle_graph(5), 5)
        keyed = [(len(s), tuple(sorted(s))) for s in seen]
        assert keyed == sorted(keyed)
        assert len(set(keyed)) == len(keyed)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=30)
    def test_complete_and_upward_closed(self, g):
        seen = set(_cover_sets(g, g.n))
        for mask in range(1 << g.n):
            s = frozenset(v for v in range(g.n) if mask >> v & 1)
            assert (s in seen) == is_vertex_cover(g, s)
        for s in seen:
            for v in range(g.n):
                assert s | {v} in seen


class TestCoverStream:
    """``iter_cover_masks`` against the definition-level subset scan, compared
    as lists, so order and multiplicity are checked along with membership.
    The scan also pins the whole-graph ``min_cover_size`` (its first size)
    and ``lexmin_cover`` with a forced set (its first cover holding it); the
    same graphs check ``clique_number`` and its lex-first witness."""

    def test_equals_subset_scan_on_all_small_labelled_graphs(self):
        # Every labelled graph of order <= 6; the stream is ordered, so its
        # covers up to any size cap are a prefix of the full one.
        checked = 0
        for n, edges, adj in _labelled_graphs(6):
            want = oracles.cover_stream(n, edges, n)
            assert list(iter_cover_masks(adj, n)) == want, (n, edges)
            full = (1 << n) - 1
            assert min_cover_size(adj, full) == want[0][0], (n, edges)
            if n:
                forced = _forced_in(full)
                size, mask = next((k, m) for k, m in want if m & forced == forced)
                assert lexmin_cover(adj, full, forced, size) == mask, (n, edges)
                size, mask = oracles.max_clique(n, edges)
                result = clique_number(Graph(n, edges))
                assert (result.value, result.witness) == (size, frozenset(_members(mask)))
            checked += 1
        assert checked == 33868

    @given(connected_graphs(min_n=7, max_n=10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_subset_scan_with_size_cap(self, g, data):
        max_size = data.draw(st.integers(0, g.n))
        assert _capped_stream(g, max_size) == oracles.cover_stream(g.n, g.edges, max_size)

    @given(connected_graphs(max_n=11), st.data())
    @settings(max_examples=60, deadline=None)
    def test_clique_bound_never_exceeds_the_cover_number(self, g, data):
        # The stream and min_cover_size start at this bound, so it must
        # never pass the subset scan's minimum either.
        active = data.draw(st.integers(0, (1 << g.n) - 1))
        adj = g.adjacency_bits
        size, _ = oracles.min_cover_within(g.edges, active)
        assert _clique_lower_bound(adj, active) <= min_cover_size(adj, active) == size
