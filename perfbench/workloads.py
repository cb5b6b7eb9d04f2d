"""The three benchmark workloads: inputs made from the seed, one callable per
request, and a check of every result.

A round of a workload is one list of requests served one at a time (closed
loop, one client).  Its inputs are a function of the seed and the round
index alone.  The package only ever sees generated graphs or edge-list
text; every call goes through a module attribute looked up at call time, so
the tracing wrappers see it.

Graphs come from pools recorded by ``record.py`` with their expected
values.  The subset scans' work depends on the vertex labelling by up to a
factor of two, so a free relabelling per seed would make a run's cost a
matter of luck.  Instead:

* ``corona-ladder`` serves one recorded relabelling of each named graph,
  and the seed permutes each colour class onto itself, which leaves Ĝ
  unchanged;
* the ``xi-scan`` pool holds pairs of graphs of similar cost (two random
  graphs, or two relabellings of a named graph); each pair alternates its
  members over rounds from a seeded start;
* ``cli-corpus`` rounds walk the recorded corpus seeds from a seeded start.

So every run of enough rounds serves the same mix, in a seed-chosen order.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from equidim import bisectors, cli, covers, equalizers, families, suites, theory
from equidim.graphs import Graph

DATA = Path(__file__).resolve().parent / "data"

#: Copy order of ``corona-ladder``; its base graphs (C_n and P_n for
#: n = 14..20, Q_4, K_{8,10}) have a complete bipartite Ĝ, so the cover
#: stream scans about 2^n non-covers before its first cover.
LADDER = tuple(
    families.FamilySpec(name, (n,)) for n in (14, 16, 18, 20) for name in ("cycle", "path")
) + (families.FamilySpec("hypercube", (4,)), families.FamilySpec("complete-bipartite", (8, 10)))
LADDER_NH = 2

#: Named graphs of ``xi-scan``, next to random graphs up to the cap of 18.
XI_FAMILIES = tuple((name, n) for n in (14, 16, 18) for name in ("path", "cycle"))

#: ``cli.main`` argument lists run on every graph of the seeded corpus.
CLI_GRAPH_COMMANDS = (
    ("xi-corona", "-", "--nh", "3", "--json"),
    ("k-threshold", "-", "--json"),
    ("bounds", "-", "--nh", "2", "--json"),
    ("xi", "-", "--json"),
)


@dataclass
class Request:
    """One top-level public call with the check of its result."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], Any]


def rotated(items: list, workload: str, seed: int, round_index: int):
    """The item for this round: rounds walk ``items`` from a start the seed
    chooses, so any ``len(items)`` consecutive rounds serve each item once."""
    start = random.Random(f"{workload}:{seed}").randrange(len(items))
    return items[(start + round_index) % len(items)]


def from_pool(name: str, seed: int, round_index: int) -> list[tuple[Graph, dict]]:
    """One recorded entry of each pair of pool ``name``, as a graph.  Each
    pair alternates its members over rounds from a seeded start, so a run of
    an even number of rounds serves both members equally often."""
    out = []
    for i, pair in enumerate(load(name)["pairs"]):
        entry = rotated(pair, f"{name}[{i}]", seed, round_index)
        out.append((as_graph(entry), entry))
    return out


def as_graph(entry: dict) -> Graph:
    return Graph(entry["n"], [tuple(e) for e in entry["edges"]])


def load(name: str) -> dict:
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


# -- corona-ladder ------------------------------------------------------------------


def corona_ladder(seed: int, round_index: int) -> list[Request]:
    rng = random.Random(f"corona-ladder:{seed}:{round_index}")
    requests = []
    for entry in load("ladder_pool.json")["graphs"]:
        spec = families.FamilySpec(entry["family"], tuple(entry["params"]))
        g = within_classes(as_graph(entry), rng)
        expected = theory.closed_formula(spec, LADDER_NH).value
        requests.append(
            Request(
                entry["id"],
                lambda g=g: equalizers.xi_corona_structured(g, LADDER_NH),
                lambda r, g=g, expected=expected: _ladder_ok(g, r, expected),
                lambda r: [r.value, sorted(r.decomposition[0]), sorted(r.decomposition[1])],
            )
        )
    return requests


def within_classes(g: Graph, rng: random.Random) -> Graph:
    """``g`` relabelled by a random permutation of each colour class onto
    itself.  The Ĝ of a connected bipartite graph is complete bipartite on
    its colour classes, so Ĝ, and with it the cover stream's work, is the
    same for every seed; the base graph's labels still change."""
    perm = list(range(g.n))
    for side in theory.two_coloring(g):
        targets = sorted(side)
        rng.shuffle(targets)
        for v, t in zip(sorted(side), targets):
            perm[v] = t
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _ladder_ok(g: Graph, result, expected: int) -> bool:
    upper, lower = result.decomposition
    ghat = bisectors.empty_bisector_graph(g).graph
    return (
        result.value == expected
        and result.value == len(upper) * LADDER_NH + len(lower)
        and len(result.witness) == result.value
        and covers.is_vertex_cover(ghat, upper)
        and covers.is_vertex_cover(ghat, lower)
        and equalizers.forward_equalized(g, equalizers.ForwardPair(upper, lower))
    )


# -- xi-scan -------------------------------------------------------------------------


def xi_scan(seed: int, round_index: int) -> list[Request]:
    requests = []
    for g, entry in from_pool("xi_pool.json", seed, round_index):
        xi, xi_total = entry["xi"]
        requests.append(
            Request(
                f"{entry['id']}/xi",
                lambda g=g: equalizers.xi_bruteforce(g),
                lambda r, g=g, xi=xi: xi_ok(g, r, xi, total=False),
                _xi_digest,
            )
        )
        requests.append(
            Request(
                f"{entry['id']}/xi-total",
                lambda g=g: equalizers.xi_total(g),
                lambda r, g=g, xi_total=xi_total: xi_ok(g, r, xi_total, total=True),
                _xi_digest,
            )
        )
    return requests


def xi_ok(g: Graph, result, expected, total: bool) -> bool:
    if expected is None:
        return result.value == math.inf and result.witness is None
    witness = result.witness
    if result.value != expected or len(witness) != expected:
        return False
    if not equalizers.is_distance_equalizer(g, witness):
        return False
    if total:
        return all(
            bisectors.bisector(g, u, v) & witness
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )
    return True


def _xi_digest(result) -> list:
    if result.witness is None:
        return ["inf", None]
    return [result.value, sorted(result.witness)]


# -- cli-corpus --------------------------------------------------------------------


def cli_requests(suite_seed: int) -> list[tuple[list[str], str]]:
    """``(argv, stdin text)`` of every ``cli.main`` request for one corpus seed."""
    out = [(["verify", name, "--seed", str(suite_seed), "--json"], "") for name in sorted(suites.SUITES)]
    for g in theory.seeded_corpus(suite_seed):
        text = edge_list_text(g)
        out.extend((list(argv), text) for argv in CLI_GRAPH_COMMANDS)
    return out


def edge_list_text(g: Graph) -> str:
    return "".join([f"{g.n} {g.m}\n"] + [f"{u} {v}\n" for u, v in g.edges])


def run_cli(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """One in-process ``cli.main`` invocation with ``stdin_text`` on stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def cli_corpus(seed: int, round_index: int) -> list[Request]:
    recorded = load("cli_digests.json")["digests"]
    suite_seed = rotated(sorted(int(s) for s in recorded), "cli-corpus", seed, round_index)
    digests = recorded[str(suite_seed)]
    requests = []
    for i, (argv, text) in enumerate(cli_requests(suite_seed)):
        expected = digests[8 * i : 8 * i + 8]
        requests.append(
            Request(
                f"seed{suite_seed}/{' '.join(argv)}#{i}",
                lambda argv=argv, text=text: run_cli(argv, text),
                lambda r, argv=argv, expected=expected: _cli_ok(argv, r, expected),
                list,
            )
        )
    return requests


def _cli_ok(argv: list[str], result: tuple[int, str], expected: str) -> bool:
    code, stdout = result
    if code != 0 or short_digest(stdout) != expected:
        return False
    return argv[0] != "verify" or json.loads(stdout)["passed"] is True


WORKLOADS = {
    "corona-ladder": corona_ladder,
    "xi-scan": xi_scan,
    "cli-corpus": cli_corpus,
}
