"""Regenerate the recorded tables under ``perfbench/data``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record.py [ladder|xi|cli ...]

* ``ladder_pool.json``: one relabelling each of C_n, P_n (n = 14..20), Q_4
  and K_{8,10}.
* ``xi_pool.json``: connected random graphs near the subset-scan cap
  (n = 15..18) and relabelled P_n, C_n (n = 14..18), with ξ and ξ_total
  (``null`` when infinite).
* ``cli_digests.json``: for each recorded corpus seed, the 8-hex-digit
  SHA-256 prefix of every ``cli-corpus`` request's stdout, concatenated.

The xi pool is a list of pairs of graphs of similar cost, and a round of
``xi-scan`` serves one graph of each pair.  Random graphs are sorted by
their measured solve time and paired with their neighbour.  A named graph
is relabelled at random several times, because the subset scans' work
depends on the labelling, and the relabellings of median solve time are
kept (one for the ladder, a pair for ``xi-scan``).  Only this choice
depends on timing.  Every recorded ξ and ξ_total is checked here against
its witness before it is written.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

from equidim import equalizers, families, theory
from equidim.graphs import Graph

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

XI_PAIRS = 40
#: Relabellings sampled per named graph; those of median cost are kept.
RELABEL_SAMPLES = 6
CLI_SEEDS = range(6)
RECORD_SEED = 20260217


def _permuted(g: Graph, rng: random.Random) -> Graph:
    """``g`` with its vertex indices shuffled."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _solve_times(solve, graphs: list[Graph], reps: int = 5) -> list[float]:
    """Fastest of ``reps`` solve times of each graph.  Graphs are timed
    round-robin, so drift in machine speed hits every graph alike, and the
    minimum drops the slowdowns that other load on the machine adds."""
    times: list[list[float]] = [[] for _ in graphs]
    for _ in range(reps):
        for i, g in enumerate(graphs):
            equalizers.xi_corona_structured.cache_clear()
            equalizers.beta_star.cache_clear()
            h = Graph(g.n, g.edges)
            t0 = time.perf_counter()
            solve(h)
            times[i].append(time.perf_counter() - t0)
    return [min(t) for t in times]


def _entry(ident: str, g: Graph, **values) -> dict:
    return {"id": ident, "n": g.n, "edges": [list(e) for e in g.edges], **values}


def _pairs(entries: list[dict], times: list[float]) -> list[list[dict]]:
    order = sorted(range(len(entries)), key=lambda i: (times[i], entries[i]["id"]))
    ranked = [entries[i] for i in order]
    return [ranked[i : i + 2] for i in range(0, len(ranked) - 1, 2)]


def _median_relabellings(rng: random.Random, spec, solve, keep: int, **values) -> list[dict]:
    """The ``keep`` relabellings of median solve time among
    :data:`RELABEL_SAMPLES` random relabellings of a named graph."""
    base = families.generate(spec)
    samples = [_permuted(base, rng) for _ in range(RELABEL_SAMPLES)]
    times = _solve_times(solve, samples)
    order = sorted(range(len(samples)), key=lambda i: times[i])
    lo = (len(order) - keep) // 2
    name = f"{spec.name}-{'-'.join(map(str, spec.params))}"
    return [
        _entry(f"{name}/{i}", samples[i], family=spec.name, params=list(spec.params), **values)
        for i in sorted(order[lo : lo + keep])
    ]


def ladder_pool(rng: random.Random) -> dict:
    def solve(g):
        return equalizers.xi_corona_structured(g, workloads.LADDER_NH)

    return {
        "graphs": [
            entry
            for spec in workloads.LADDER
            for entry in _median_relabellings(rng, spec, solve, keep=1)
        ]
    }


def _xi_values(g: Graph) -> list:
    xi = equalizers.xi_bruteforce(g)
    total = equalizers.xi_total(g)
    if not workloads.xi_ok(g, xi, xi.value, total=False):
        raise AssertionError(f"xi witness rejected on {g}")
    total_value = None if total.value == math.inf else total.value
    if not workloads.xi_ok(g, total, total_value, total=True):
        raise AssertionError(f"xi_total witness rejected on {g}")
    return [xi.value, total_value]


def _xi_solve(g: Graph) -> None:
    equalizers.xi_bruteforce(g)
    equalizers.xi_total(g)


def xi_pool(rng: random.Random) -> dict:
    pairs = []
    for name, n in workloads.XI_FAMILIES:
        spec = families.FamilySpec(name, (n,))
        values = _xi_values(families.generate(spec))
        pairs.append(_median_relabellings(rng, spec, _xi_solve, keep=2, xi=values))
    entries, graphs = [], []
    for i in range(2 * XI_PAIRS):
        n = rng.randint(15, 18)
        p = rng.choice((0.3, 0.5, 0.7))
        g = theory.random_connected_graph(rng, n, p)
        entries.append(_entry(f"x{i:03d}", g, xi=_xi_values(g)))
        graphs.append(g)
    return {"pairs": pairs + _pairs(entries, _solve_times(_xi_solve, graphs))}


def cli_digests() -> dict:
    digests = {}
    for suite_seed in CLI_SEEDS:
        equalizers.xi_corona_structured.cache_clear()
        equalizers.beta_star.cache_clear()
        chunks = []
        for argv, text in workloads.cli_requests(suite_seed):
            code, stdout = workloads.run_cli(argv, text)
            if code != 0:
                raise AssertionError(f"{argv} exited {code}")
            if argv[0] == "verify" and json.loads(stdout)["passed"] is not True:
                raise AssertionError(f"{argv} reports failures")
            chunks.append(workloads.short_digest(stdout))
        digests[str(suite_seed)] = "".join(chunks)
    return {"digests": digests}


def _write(name: str, payload: dict) -> None:
    path = workloads.DATA / name
    path.write_text(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {path}")


POOLS = {
    "ladder": ladder_pool,
    "xi": xi_pool,
}


def main(argv: list[str]) -> int:
    """Record the named tables (``ladder``, ``xi``, ``cli``;
    default all).  Each pool draws from its own seeded stream."""
    for name in argv or [*POOLS, "cli"]:
        if name == "cli":
            _write("cli_digests.json", cli_digests())
        else:
            _write(f"{name}_pool.json", POOLS[name](random.Random(f"{RECORD_SEED}:{name}")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
