"""Edge-list text format and DOT export.

Format: the first significant line is ``n m``; the next ``m`` significant
lines are ``u v`` with integer vertex labels.  Blank lines and ``#``
comments are ignored.  Labels are arbitrary integers: they are remapped to
internal indices by sorted order and preserved on the graph.  A declared
order above :data:`MAX_INPUT_ORDER` is rejected.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import GraphError
from .graphs import Graph

#: Largest declared order accepted, checked before any per-vertex allocation.
MAX_INPUT_ORDER = 1024
#: Distinct edge-list texts whose parsed graphs are kept.
MAX_PARSED_TEXTS = 16


@lru_cache(maxsize=MAX_PARSED_TEXTS)
def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a labeled :class:`Graph`.

    Equal texts give the one same ``Graph``, from a memo of the
    :data:`MAX_PARSED_TEXTS` texts most recently parsed, so repeated
    commands on one input share every table that one has built.  A parse
    error is never cached: it is raised on every call."""
    header: tuple[int, int] | None = None
    raw_edges: list[tuple[int, int, int]] = []  # (label_u, label_v, line_no)
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        if header is None:
            if len(fields) != 2:
                raise GraphError(f"line {line_no}: expected header 'n m'")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphError(f"line {line_no}: header entries must be integers") from None
            if n < 1 or m < 0:
                raise GraphError(f"line {line_no}: need order >= 1 and edge count >= 0")
            if n > MAX_INPUT_ORDER:
                raise GraphError(
                    f"line {line_no}: order {n} exceeds the input limit {MAX_INPUT_ORDER}"
                )
            header = (n, m)
            continue
        if len(fields) != 2:
            raise GraphError(f"line {line_no}: expected edge 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphError(f"line {line_no}: edge endpoints must be integers") from None
        raw_edges.append((u, v, line_no))
    if header is None:
        raise GraphError("line 1: empty input, expected header 'n m'")
    n, m = header
    if len(raw_edges) != m:
        raise GraphError(f"header announced {m} edges but file contains {len(raw_edges)}")

    seen = sorted({x for u, v, _ in raw_edges for x in (u, v)})
    if len(seen) > n:
        raise GraphError(f"{len(seen)} distinct labels exceed declared order {n}")
    labels = list(seen)
    next_label = (max(seen) + 1) if seen else 0
    while len(labels) < n:
        labels.append(next_label)
        next_label += 1
    index = {lab: i for i, lab in enumerate(labels)}

    edges = []
    for u, v, line_no in raw_edges:
        if u == v:
            raise GraphError(f"line {line_no}: self-loop at {u}")
        edges.append((index[u], index[v]))
    return Graph(n, edges, labels=tuple(labels))


def format_edge_list(g: Graph) -> str:
    """Serialize a graph in the same edge-list format, edges sorted by label.

    Non-integer labels (for instance the bit-string names on hypercubes)
    cannot round-trip through the integer format, so internal indices are
    written instead.
    """
    labels = g.labels
    if labels is None or not all(isinstance(lab, int) for lab in labels):
        labels = tuple(range(g.n))
    lines = [f"{g.n} {g.m}"]
    out_edges = sorted(
        (min(labels[u], labels[v]), max(labels[u], labels[v])) for u, v in g.edges
    )
    lines.extend(f"{u} {v}" for u, v in out_edges)
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    """DOT text for the graph; no layout attributes.  Each vertex is the
    quoted DOT ID of its label, with ``\\`` and ``"`` escaped."""
    ids = [
        '"' + str(g.label_of(v)).replace("\\", "\\\\").replace('"', '\\"') + '"'
        for v in range(g.n)
    ]
    lines = ["graph G {"]
    lines.extend(f"  {vid};" for vid in ids)
    lines.extend(f"  {ids[u]} -- {ids[v]};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
