"""Self-test of the benchmark: one round of a seed repeats exactly, and the
reports carry the metric names ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["xi-scan", "cli-corpus"])
def test_traced_round_repeats_exactly(workload):
    first = run.run_round(ROOT, workload, 7, 0, True, 120)
    second = run.run_round(ROOT, workload, 7, 0, True, 120)
    assert first["failed"] == [] and second["failed"] == []
    assert first["digest"] == second["digest"]
    assert first["cache"] == second["cache"]
    for key in ("calls", "counts", "lexmin_from_per_u"):
        assert first["trace"][key] == second["trace"][key]


def test_wrappers_see_every_binding():
    # cli.main reaches parse_edge_list through its own module binding.
    report = run.run_round(ROOT, "cli-corpus", 3, 0, True, 120)
    calls = report["trace"]["calls"]
    graph_commands = report["attempted"] - 10
    assert calls["fileio.parse"] == graph_commands
    assert calls["cli.main"] == report["attempted"]
    assert calls["suites.run_suite"] == 10
    assert report["trace"]["counts"]["covers.covers_streamed"] > 0


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "cli-corpus", "--seed", "1", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in _spec()["per_layer"])


def test_end_to_end_metrics_match_the_spec():
    nominal = run.speed.NOMINAL_S
    labels = [f"r{i}" for i in range(20)]
    rounds = [
        {
            "setup_s": 0.1 * k,
            "labels": labels,
            "latencies_s": [0.01 * k * (i + 1) for i in range(20)],
            "probe_s": [nominal * k] * 21,
            "rss_mb": 20.0,
        }
        for k in (1, 2, 4)
    ]
    values, _ = run.end_to_end(rounds)
    assert sorted(values) == sorted(m["name"] for m in _spec()["end_to_end"])
    assert all(v > 0 for v in values.values())
    # A host twice as slow for a whole round doubles its probe times too.
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["wall_s"] == pytest.approx(2.1)
    assert values["largest_s"] == pytest.approx(0.2)
    assert values["call_p50_ms"] == pytest.approx(105)


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "xi-scan", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
