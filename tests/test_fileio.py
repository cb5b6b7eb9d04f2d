import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidim import (
    EquidimError,
    Graph,
    GraphError,
    format_edge_list,
    parse_edge_list,
    to_dot,
)
from equidim.fileio import MAX_INPUT_ORDER, MAX_PARSED_TEXTS
from equidim.families import fish_graph, hypercube_graph


FISH_TEXT = """\
# six vertices, eight edges
6 8
1 3
3 2
2 4
4 1

1 2
3 5
5 6
6 3
"""


def test_parse_fish_with_comments_and_blanks():
    g = parse_edge_list(FISH_TEXT)
    assert g == fish_graph()


def test_round_trip_preserves_labels():
    g = Graph(4, [(0, 2), (1, 3)], labels=(10, 20, 30, 41))
    again = parse_edge_list(format_edge_list(g))
    # Equality reads the order and edges only, so the labels are checked alone.
    assert again == g and again.labels == g.labels


def test_round_trip_of_every_fixture(fish, chorded_path, pendant_triangle, k5_leaves):
    for g in (fish, chorded_path, pendant_triangle, k5_leaves):
        again = parse_edge_list(format_edge_list(g))
        assert again == g and again.labels == g.labels


def test_writer_sorts_edges():
    g = Graph(3, [(2, 1), (0, 2)])
    assert format_edge_list(g) == "3 2\n0 2\n1 2\n"


def test_isolated_vertices_get_padded_labels():
    g = parse_edge_list("4 1\n5 9\n")
    assert g.labels == (5, 9, 10, 11)
    assert g.m == 1


def test_empty_graph_file():
    g = parse_edge_list("3 0\n")
    assert g.n == 3 and g.m == 0


def test_hypercube_labels_fall_back_to_indices():
    q2 = hypercube_graph(2)
    again = parse_edge_list(format_edge_list(q2))
    assert again.n == q2.n and again.edges == q2.edges


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("nope\n", "line 1"),
        ("2 1\n0 0\n", "line 2: self-loop"),
        ("2 1\n0 x\n", "line 2"),
        ("2 2\n0 1\n", "announced 2 edges"),
        ("2 1\n0 1\n1 0\n", "announced 1 edges"),
        ("1 1\n3 4\n", "exceed"),
        ("2 1\n0 1 2\n", "line 2"),
    ],
)
def test_malformed_inputs_report_line(text, fragment):
    # A parse error is never memoized: the second call raises it again.
    for _ in range(2):
        with pytest.raises(GraphError, match=fragment):
            parse_edge_list(text)


def test_equal_texts_give_one_graph():
    parse_edge_list.cache_clear()
    first = parse_edge_list(FISH_TEXT)
    # An equal text in a distinct string object, as a second read returns.
    again = parse_edge_list("".join(list(FISH_TEXT)))
    assert again is first
    # Another text of the same graph parses to its own object.
    other = parse_edge_list(format_edge_list(first))
    assert other == first and other is not first
    # Labels take no part in identity: the unlabelled fish is the same graph.
    twin = Graph(6, first.edges)
    assert twin == first and hash(twin) == hash(other) == hash(first)
    info = parse_edge_list.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_parse_memo_is_bounded():
    assert parse_edge_list.cache_info().maxsize == MAX_PARSED_TEXTS
    parse_edge_list.cache_clear()
    for n in range(1, MAX_PARSED_TEXTS + 2):
        parse_edge_list(f"{n} 0\n")
    assert parse_edge_list.cache_info().currsize == MAX_PARSED_TEXTS


def test_dot_export_mentions_every_edge(fish):
    dot = to_dot(fish)
    assert dot.startswith("graph G {")
    assert '"5" -- "6";' in dot
    assert dot.count("--") == fish.m


def test_dot_ids_escape_quotes_and_backslashes():
    g = Graph(2, [(0, 1)], labels=('a"b', "c\\"))
    dot = to_dot(g)
    assert dot == 'graph G {\n  "a\\"b";\n  "c\\\\";\n  "a\\"b" -- "c\\\\";\n}\n'
    # Read as DOT reads a quoted ID, each one gives its label back.
    ids = re.findall(r'"((?:[^"\\]|\\.)*)"', dot)
    assert [re.sub(r"\\(.)", r"\1", vid) for vid in ids] == ['a"b', "c\\"] * 2


def test_declared_order_above_the_input_limit_is_rejected():
    with pytest.raises(GraphError, match="input limit"):
        parse_edge_list(f"{MAX_INPUT_ORDER + 1} 0\n")


def test_declared_order_at_the_input_limit_is_accepted():
    assert parse_edge_list(f"{MAX_INPUT_ORDER} 0\n").n == MAX_INPUT_ORDER


_LINES = st.one_of(
    st.text(max_size=10),
    st.tuples(st.integers(-2, 12), st.integers(-2, 12)).map(lambda p: f"{p[0]} {p[1]}"),
)


@settings(max_examples=100)
@given(st.lists(_LINES, max_size=8).map("\n".join))
def test_fuzzed_text_parses_or_raises_a_package_error(text):
    try:
        g = parse_edge_list(text)
    except EquidimError:
        return
    assert isinstance(g, Graph) and 1 <= g.n <= MAX_INPUT_ORDER
