"""Golden output of every ``equidim`` subcommand.

Each case is one ``cli.main`` call; ``cli_golden.json`` holds its exit
code, stdout and stderr.  The inputs are the fish graph, a graph with
non-contiguous (and negative) integer labels, a disconnected graph, and one
call over a ``--budget 3`` cap; every graph subcommand runs in text and in
``--json`` form, and every ``--help`` text is pinned too.

Re-record after a deliberate output change with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from equidim import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

#: Edge lists written to files; ``{name}`` in an argument is the file's path.
GRAPHS = {
    "fish": "6 8\n1 3\n3 2\n2 4\n4 1\n1 2\n3 5\n5 6\n6 3\n",
    # K4 with two pendant leaves, relabelled by non-contiguous integers.
    "sparse-labels": "6 8\n7 101\n7 -4\n7 30\n7 0\n12 0\n12 -4\n0 -4\n12 7\n",
    "disconnected": "5 3\n1 2\n2 3\n4 5\n",
    "k1": "1 0\n",
}

#: Per graph: the ``bisector`` pair and the ``forward-check`` sets.
_PAIRS = {
    "fish": (["1", "2"], ["--x", "1,2,3,5,6", "--y", "1,2,4"]),
    "sparse-labels": (["-4", "0"], ["--x=-4,0,7,30,101", "--y=-4,0,7,12"]),
    "disconnected": (["1", "4"], ["--x", "1,2", "--y", "4"]),
}

COMMANDS = (
    "gen",
    "dist",
    "bisector",
    "empty-bisector",
    "cover",
    "alpha",
    "omega",
    "xi",
    "xi-total",
    "xi-corona",
    "beta-star",
    "k-threshold",
    "forward-check",
    "bounds",
    "verify",
)


def cases() -> list[list[str]]:
    out = [["--help"], *([name, "--help"] for name in COMMANDS)]
    out += [
        ["gen", "cycle", "4"],
        ["gen", "fish", "--dot"],
        ["gen", "hypercube", "2"],
        ["gen", "complete-multipartite", "1", "2", "2"],
        ["verify", "fig7"],
        ["verify", "table1", "--json"],
        ["xi", "{fish}", "--budget", "3"],
        ["bounds", "{fish}", "--nh", "2", "--budget", "3"],
        ["k-threshold", "{fish}", "--sweep", "3..1"],
        ["xi-corona", "{fish}", "--nh", "1", "--oracle", "{k1}"],
        ["xi-corona", "{fish}", "--nh", "1", "--oracle", "{k1}", "--json"],
    ]
    for name, (pair, sets) in _PAIRS.items():
        graph = "{%s}" % name
        for form in ([], ["--json"]):
            out += [
                ["dist", graph, *form],
                ["bisector", graph, *pair, *form],
                ["empty-bisector", graph, *form],
                *([cmd, graph, *form] for cmd in ("cover", "alpha", "omega", "xi", "xi-total")),
                ["xi-corona", graph, "--nh", "2", *form],
                ["beta-star", graph, *form],
                ["k-threshold", graph, *form],
                ["k-threshold", graph, "--sweep", "1..3", *form],
                ["forward-check", graph, *sets, *form],
                ["bounds", graph, "--nh", "2", *form],
            ]
    return out


def call(argv: list[str], paths: dict[str, str]) -> dict:
    """Run ``cli.main`` on ``argv`` with the graph paths filled in."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([arg.format(**paths) for arg in argv])
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_graphs(directory: Path) -> dict[str, str]:
    paths = {}
    for name, text in GRAPHS.items():
        path = directory / f"{name}.edges"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def test_every_subcommand_matches_its_golden_output(tmp_path, monkeypatch):
    # argparse wraps help and usage to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    paths = _write_graphs(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    assert [case["argv"] for case in golden] == cases()
    # Every case runs twice, in order and then reversed, so each is also
    # served from warm command-line and edge-list memos.
    for case in golden + golden[::-1]:
        assert call(case["argv"], paths) == case


def changed_namespaces(argvs: list[list[str]], paths: dict[str, str]) -> list[list[str]]:
    """The argument lists whose memoized Namespace a run changed, compared
    with a fresh parse.  Every call with one command line shares that
    Namespace, so runners and handlers must only read it."""
    changed = []
    for argv in argvs:
        filled = tuple(arg.format(**paths) for arg in argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                shared = cli._parse_args(cli._parser(), filled)
            except SystemExit:  # usage errors and --help are not memoized
                continue
        call(argv, paths)
        if vars(shared) != vars(cli._parser().parse_args(filled)):
            changed.append(argv)
    return changed


def test_no_case_changes_its_namespace(tmp_path):
    paths = _write_graphs(tmp_path)
    assert changed_namespaces(cases(), paths) == []


def test_a_handler_that_changes_its_namespace_is_caught(tmp_path, monkeypatch):
    paths = _write_graphs(tmp_path)
    dist = cli._dist

    def mutating(g, args, budget):
        args.json = True
        return dist(g, args, budget)

    monkeypatch.setattr(cli, "_dist", mutating)
    cli._parser.cache_clear()  # the parser binds the handler when built
    try:
        assert changed_namespaces([["dist", "{fish}"]], paths) == [["dist", "{fish}"]]
    finally:
        cli._parser.cache_clear()


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_graphs(Path(tmp))
        recorded = [call(argv, paths) for argv in cases()]
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN}")
