import random
import tracemalloc
from functools import cached_property

import pytest
from hypothesis import strategies as st

from equidim import Graph, GraphError, cli, equalizers, fileio, suites
from equidim.families import (
    chorded_path_graph,
    fish_graph,
    k4_leaves_graph,
    k5_leaves_graph,
    pendant_triangle_graph,
)
from equidim.theory import random_connected_graph


@pytest.fixture(scope="session")
def fish():
    return fish_graph()


@pytest.fixture(scope="session")
def k4_leaves():
    return k4_leaves_graph()


@pytest.fixture(scope="session")
def chorded_path():
    return chorded_path_graph()


@pytest.fixture(scope="session")
def pendant_triangle():
    return pendant_triangle_graph()


@pytest.fixture(scope="session")
def k5_leaves():
    return k5_leaves_graph()


def clear_solver_caches():
    """Empty every solver result cache, the two input memos of ``cli.main``
    (command lines and edge-list texts) and the suites' corpus memo, so the
    next call on any graph parses and solves, and the next corpus suite
    samples its graphs afresh.  Only the argument parser memo is kept."""
    for cache in (
        equalizers._xi_solve,
        equalizers._staircase,
        cli._parse_args,
        fileio.parse_edge_list,
        suites._corpus,
    ):
        cache.cache_clear()


def traced_growth(call):
    """Bytes by which tracemalloc's traced memory grows across ``call()``,
    whose return value is dropped: what the call leaves held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def traced_peak(call):
    """Bytes by which tracemalloc's traced memory peaks above its level
    before ``call()``: what the call holds at its most, dropped or not."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def count_table_builds(monkeypatch):
    """The list to which each build of ``Graph._forward_and_ghat``, the one
    BFS pass behind a graph's corona tables, appends its graph from now on."""
    build = Graph.__dict__["_forward_and_ghat"].func
    built = []

    def counting(graph):
        built.append(graph)
        return build(graph)

    counted = cached_property(counting)
    counted.__set_name__(Graph, "_forward_and_ghat")
    monkeypatch.setattr(Graph, "_forward_and_ghat", counted)
    return built


def hard_draws(count):
    """The first ``count`` graphs of the seeded hard corona-search recipe,
    where draw k is entry k - 1: from ``random.Random(11)``, each draw picks
    n in {18, 20, ..., 28} and an edge probability in [0.08, 0.22]; draws
    that find no connected sample are skipped and not counted."""
    rng = random.Random(11)
    out = []
    while len(out) < count:
        n = rng.choice((18, 20, 22, 24, 26, 28))
        p = rng.uniform(0.08, 0.22)
        try:
            out.append(random_connected_graph(rng, n, p, max_tries=200))
        except GraphError:
            continue
    return out


def labelset(g, *labels):
    """Internal indices for user labels; keeps tests readable against the
    1-indexed names of the worked examples."""
    return frozenset(g.index_of(x) for x in labels)


@st.composite
def connected_graphs(draw, min_n=2, max_n=8):
    """Random connected graph: a random tree plus a random set of extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * 2,
        )
    )
    edges.update((min(u, v), max(u, v)) for u, v in extra if u != v)
    return Graph(n, sorted(edges))


@st.composite
def graph_pairs_for_corona(draw):
    g = draw(connected_graphs(min_n=1, max_n=6))
    h_n = draw(st.integers(1, 3))
    slots = [(u, v) for u in range(h_n) for v in range(u + 1, h_n)]
    h_edges = [e for e in slots if draw(st.booleans())]
    return g, Graph(h_n, h_edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)
