import pytest

from equidim import GraphError, families, join
from equidim.families import (
    FamilySpec,
    bistar_graph,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    empty_graph,
    generate,
    hypercube_graph,
    path_graph,
    wheel_graph,
)
from equidim.graphs import Graph
from equidim.theory import two_coloring


def test_hypercube_q3_structure():
    q3 = hypercube_graph(3)
    assert q3.n == 8 and q3.m == 12
    big, small = two_coloring(q3)
    assert len(big) == len(small) == 4
    assert q3.labels == tuple(format(i, "03b") for i in range(8))


def test_fish_shape(fish):
    assert (fish.n, fish.m) == (6, 8)


def test_pendant_triangle_shape(pendant_triangle):
    assert (pendant_triangle.n, pendant_triangle.m) == (8, 8)
    degrees = sorted(pendant_triangle.degree(v) for v in range(8))
    assert degrees == [1, 1, 1, 1, 1, 3, 4, 4]


def test_k4_leaves_structure(k4_leaves):
    assert (k4_leaves.n, k4_leaves.m) == (6, 8)
    assert k4_leaves.degree(k4_leaves.index_of(3)) == 5


def test_k5_leaves_structure(k5_leaves):
    assert (k5_leaves.n, k5_leaves.m) == (10, 15)
    assert sorted(k5_leaves.degree(v) for v in range(10)) == [1] * 5 + [5] * 5


def test_paths_and_even_cycles_bipartite():
    for n in (2, 3, 4, 5, 6):
        two_coloring(path_graph(n))
    for n in (4, 6, 8):
        two_coloring(cycle_graph(n))
    for n in (3, 5, 7):
        with pytest.raises(GraphError, match="not bipartite"):
            two_coloring(cycle_graph(n))


def test_wheel_equals_hub_join_rim():
    for n in (4, 5, 6, 7):
        assert wheel_graph(n) == join(Graph(1), cycle_graph(n - 1))


def test_complete_bipartite_edge_count():
    for r, s in ((1, 1), (2, 3), (3, 5)):
        assert complete_bipartite_graph(r, s).m == r * s


def test_bistar_shape():
    g = bistar_graph(2, 3)
    assert g.n == 7 and g.m == 6
    assert g.degree(0) == 3 and g.degree(1) == 4


def test_complete_multipartite_octahedron():
    g = complete_multipartite_graph((2, 2, 2))
    assert g.n == 6 and g.m == 12


def test_empty_and_complete():
    assert empty_graph(4).m == 0
    assert complete_graph(4).m == 6


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("cycle", (2,)),
        FamilySpec("wheel", (3,)),
        FamilySpec("bistar", (3, 2)),
        FamilySpec("bistar", (0, 1)),
        FamilySpec("complete-multipartite", (1, 2)),
        FamilySpec("complete-multipartite", (0, 1, 1)),
        FamilySpec("hypercube", (0,)),
        FamilySpec("empty", (0,)),
        FamilySpec("path", ()),
        FamilySpec("fish", (1,)),
        FamilySpec("no-such-family", ()),
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(GraphError):
        generate(spec)


@pytest.mark.parametrize(
    "name, params",
    [
        ("path", (2.5,)),
        ("cycle", (6.0,)),
        ("complete-bipartite", (True, 2)),
        ("hypercube", (2.0,)),
        ("wheel", ("5",)),
    ],
)
def test_non_integer_parameters_rejected(name, params):
    # Built inside the check: the spec itself refuses the parameters.
    with pytest.raises(GraphError, match="must be integers"):
        generate(FamilySpec(name, params))


def test_malformed_spec_rejected():
    # A name that is not a string, or parameters that are not a sequence,
    # fail in the spec rather than as a TypeError inside generate.
    with pytest.raises(GraphError, match="must be a sequence"):
        FamilySpec("path", 5)
    with pytest.raises(GraphError, match="must be a sequence"):
        FamilySpec("path", None)
    with pytest.raises(GraphError, match="must be a string"):
        FamilySpec(["path"], (3,))


def test_generate_dispatch_matches_builders():
    assert generate(FamilySpec("path", (4,))) == path_graph(4)
    assert generate(FamilySpec("complete-bipartite", (2, 3))) == complete_bipartite_graph(2, 3)
    assert generate(FamilySpec("complete-multipartite", (1, 2, 2))) == complete_multipartite_graph((1, 2, 2))
    assert generate(FamilySpec("fish",)) is not None


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", (1025,)),
        FamilySpec("hypercube", (11,)),
        FamilySpec("bistar", (511, 512)),
        FamilySpec("complete-multipartite", (500, 500, 25)),
    ],
    ids=["path", "hypercube", "bistar", "complete-multipartite"],
)
def test_order_above_the_input_limit_refused_before_building(monkeypatch, spec):
    def never(*args):
        raise AssertionError("builder ran")

    arity, order, _ = families._PARAMETRIC[spec.name]
    monkeypatch.setitem(families._PARAMETRIC, spec.name, (arity, order, never))
    with pytest.raises(GraphError, match="input limit"):
        generate(spec)


def test_order_at_the_input_limit_is_built():
    assert generate(FamilySpec("path", (1024,))).n == 1024
    assert generate(FamilySpec("bistar", (511, 511))).n == 1024
