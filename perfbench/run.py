"""Benchmark of the ``equidim`` package: one stdlib-only command.

Run from the repository root::

    python3 perfbench/run.py --workload corona-ladder --seed 0 --seconds 35 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``corona-ladder``: ``xi_corona_structured(g, 2)`` on relabelled C_n and
  P_n (n = 14..20), Q_4 and K_{8,10}; the cover stream is the whole cost.
* ``xi-scan``: ``xi_bruteforce`` and ``xi_total`` on relabelled P_n and C_n
  (n = 14..18) and random graphs near the cap of 18; no cover stream.
* ``cli-corpus``: in-process ``cli.main`` on all ten suites and four
  commands per graph of the seeded corpus; many small repeated requests.

Each round of a workload runs in a fresh interpreter (``child.py``), one
request at a time; rounds repeat until ``--seconds`` have passed, so each
request is served several times.  The host is shared, and the same work runs
up to about 1.9x slower while other tenants are busy, in stretches from a
second to minutes.  So each time is put into the units of a speed probe
timed right before and right after it (``speed.py``): time x
``speed.NOMINAL_S`` / the mean of those two probe times.  A request's time
is the median of its scaled repetitions.  The unscaled values are printed
above the result line.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics:

* ``setup_s``: spawn of the round's interpreter until its inputs are ready
  (start-up, import, input generation), scaled by the probe after it,
  median over rounds;
* ``wall_s``: the times of a round's requests, summed, and averaged over
  the distinct request lists the run served;
* ``call_p50_ms`` / ``call_p90_ms``: quantiles of the times of all distinct
  requests (their number is printed above the result line);
* ``largest_s``: the time of a round's slowest request, median over rounds;
* ``peak_rss_mb``: ``ru_maxrss`` of a round's interpreter, median.

Failed or wrong requests are counted in ``failed``; their share of
``attempted`` is printed as ``failed_ratio``.  With ``--trace 1`` each round
runs twice, untraced then traced, and the last line reports the per-layer
metrics: time medians over traced rounds, counts from round 0 (they repeat
exactly for a seed), and ``trace.overhead_s`` as the median of traced minus
untraced wall time.  Spans of the traced rounds are written to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corona-ladder", "xi-scan", "cli-corpus")
#: Every run, set-up included, ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
OUT_DIR = ".perfbench-out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("largest_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(
    root: Path, workload: str, seed: int, round_index: int, trace: bool, timeout: float
) -> dict:
    """Run one round in a fresh interpreter and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    args = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(round_index)]
    args.append("1" if trace else "0")
    span_file = []
    if trace:
        (root / OUT_DIR).mkdir(exist_ok=True)
        span_file.append(str(root / OUT_DIR / f"spans-{workload}-seed{seed}-round{round_index}.json"))
    args += [repr(monotonic()), *span_file]
    proc = subprocess.run(args, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"round {round_index} of {workload} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_latencies(r: dict) -> list[float]:
    """A round's request times, each scaled by the probe times just before
    and just after it."""
    probe = r["probe_s"]
    return [
        t * 2 * speed.NOMINAL_S / (probe[i] + probe[i + 1])
        for i, t in enumerate(r["latencies_s"])
    ]


def summary(rounds: list[dict], latencies: list[list[float]]) -> dict[str, float]:
    """Times of a run from each round's request times ``latencies``."""
    samples: dict[str, list[float]] = {}
    for r, ts in zip(rounds, latencies):
        for label, t in zip(r["labels"], ts):
            samples.setdefault(label, []).append(t)
    times = {label: statistics.median(ts) for label, ts in samples.items()}
    ordered = sorted(times.values())
    lists = {tuple(r["labels"]) for r in rounds}
    return {
        "wall_s": statistics.mean(sum(times[label] for label in labels) for labels in lists),
        "call_p50_ms": 1e3 * statistics.median(ordered),
        "call_p90_ms": 1e3 * statistics.quantiles(ordered, n=10)[8],
        "largest_s": statistics.median(max(ts) for ts in latencies),
    }


def end_to_end(rounds: list[dict]) -> tuple[dict, list[str]]:
    values = {
        "setup_s": statistics.median(
            r["setup_s"] * speed.NOMINAL_S / r["probe_s"][0] for r in rounds
        ),
        **summary(rounds, [scaled_latencies(r) for r in rounds]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    unscaled = summary(rounds, [r["latencies_s"] for r in rounds])
    unscaled["setup_s"] = statistics.median(r["setup_s"] for r in rounds)
    probes = [p for r in rounds for p in r["probe_s"]]
    served = sum(len(r["labels"]) for r in rounds)
    distinct = len({label for r in rounds for label in r["labels"]})
    lists = len({tuple(r["labels"]) for r in rounds})
    notes = [
        f"rounds {len(rounds)}, requests {served}, distinct {distinct} "
        f"(served {served / distinct:.1f} times each), request lists {lists}",
        f"call_p50_ms / call_p90_ms from the times of {distinct} distinct requests",
        f"speed probe: {len(probes)} samples, median {1e3 * statistics.median(probes)} ms, "
        f"nominal {1e3 * speed.NOMINAL_S} ms",
        "unscaled: " + ", ".join(f"{name} {value}" for name, value in unscaled.items()),
    ]
    return values, notes


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    traced = [t["trace"] for _, t in pairs]
    first = pairs[0][1]

    def med_time(kind: str, name: str) -> float:
        return statistics.median(t[kind].get(name, 0.0) for t in traced)

    calls = traced[0]["calls"]
    counts = traced[0]["counts"]
    streamed = counts.get("covers.covers_streamed", 0)
    return {
        "covers.stream_s": (med_time("inclusive_s", "covers.iter_cover_masks.next"), "s"),
        "covers.covers_streamed": (streamed, "count"),
        "covers.min_cover_size_calls": (calls.get("covers.min_cover_size", 0), "count"),
        "covers.min_cover_size_s": (med_time("inclusive_s", "covers.min_cover_size"), "s"),
        "covers.lexmin_cover_calls": (calls.get("covers.lexmin_cover", 0), "count"),
        "covers.lexmin_cover_s": (med_time("inclusive_s", "covers.lexmin_cover"), "s"),
        "covers.improving_ratio": (
            traced[0]["lexmin_from_per_u"] / streamed if streamed else 0.0,
            "ratio",
        ),
        "equalizers.xi_bruteforce_s": (med_time("inclusive_s", "equalizers.xi_bruteforce"), "s"),
        "equalizers.xi_total_s": (med_time("inclusive_s", "equalizers.xi_total"), "s"),
        "equalizers.xi_corona_oracle_s": (
            med_time("inclusive_s", "equalizers.xi_corona_oracle"),
            "s",
        ),
        "equalizers.xi_corona_structured.self_s": (
            med_time("self_s", "equalizers.xi_corona_structured"),
            "s",
        ),
        "equalizers.beta_star.self_s": (med_time("self_s", "equalizers.beta_star"), "s"),
        "equalizers.k_threshold.self_s": (med_time("self_s", "equalizers.k_threshold"), "s"),
        "equalizers.cache_hits": (first["cache"]["hits"], "count"),
        "equalizers.cache_misses": (first["cache"]["misses"], "count"),
        "equalizers.cache_entries": (first["cache"]["entries"], "count"),
        "bisectors.empty_bisector_graph_calls": (
            calls.get("bisectors.empty_bisector_graph", 0),
            "count",
        ),
        "bisectors.empty_bisector_graph_s": (
            med_time("inclusive_s", "bisectors.empty_bisector_graph"),
            "s",
        ),
        "graphs.distances_s": (med_time("inclusive_s", "graphs.distances"), "s"),
        "graphs.corona_s": (med_time("inclusive_s", "graphs.corona"), "s"),
        "fileio.parse_calls": (calls.get("fileio.parse", 0), "count"),
        "fileio.parse_s": (med_time("inclusive_s", "fileio.parse"), "s"),
        "cli.main.self_s": (med_time("self_s", "cli.main"), "s"),
        "suites.run_suite_s": (med_time("inclusive_s", "suites.run_suite"), "s"),
        "suites.checks": (counts.get("suites.checks", 0), "count"),
        "theory.bounds_report_s": (med_time("inclusive_s", "theory.bounds_report"), "s"),
        "trace.overhead_s": (
            statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs),
            "s",
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "equidim" / "__init__.py").is_file():
        print("error: run from the repository root; src/equidim not found", file=sys.stderr)
        return 2

    start = monotonic()
    rounds: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    round_index = 0
    try:
        while not rounds or monotonic() - start < args.seconds:
            remaining = DEADLINE_S - (monotonic() - start)
            plain = run_round(root, args.workload, args.seed, round_index, False, remaining)
            rounds.append(plain)
            if args.trace:
                remaining = DEADLINE_S - (monotonic() - start)
                traced = run_round(root, args.workload, args.seed, round_index, True, remaining)
                rounds.append(traced)
                pairs.append((plain, traced))
            round_index += 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failures = [label for r in rounds for label in r["failed"]]
    if args.trace:
        metrics = per_layer(pairs)
        notes = [f"rounds {len(pairs)} untraced + {len(pairs)} traced; counts from round 0"]
    else:
        values, notes = end_to_end(rounds)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    notes.append(f"failed_ratio {len(failures) / attempted} ({len(failures)}/{attempted})")
    for label in failures[:10]:
        notes.append(f"FAILED {label}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
