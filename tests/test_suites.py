import dataclasses
import json

import pytest

from equidim import cli, equalizers, theory
from equidim.errors import EquidimError, GraphError
from equidim.suites import SUITES, run_suite


EXPECTED_NAMES = {
    "table1",
    "fig7",
    "families",
    "bounds",
    "bipartite",
    "gallai",
    "characterization",
    "linearity",
    "oracle-equivalence",
    "g-vs-ghat",
}


def test_registry_names():
    assert set(SUITES) == EXPECTED_NAMES


def test_unknown_suite_rejected():
    with pytest.raises(EquidimError, match="unknown suite"):
        run_suite("nope")


def test_table1_passes_and_serializes():
    report = run_suite("table1")
    assert report.passed
    payload = report.to_jsonable()
    keys = [c["key"] for c in payload["checks"]]
    assert keys == sorted(keys)
    assert any(k.endswith("nh=3") for k in keys)


def test_fig7_passes():
    assert run_suite("fig7").passed


def test_gallai_json_deterministic_per_seed():
    first = run_suite("gallai", seed=5).to_json()
    second = run_suite("gallai", seed=5).to_json()
    assert first == second
    assert first != run_suite("gallai", seed=6).to_json()


def test_failures_carry_counterexamples(monkeypatch, capsys):
    # One too high everywhere: every fig7 value check fails, and the
    # verify command prints each failure with its graph.
    solve = equalizers.xi_corona_structured

    def off_by_one(g, n_h, **kw):
        result = solve(g, n_h, **kw)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(equalizers, "xi_corona_structured", off_by_one)
    assert cli.main(["verify", "fig7"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "FAIL pendant-triangle/nh=1" in out
    assert "suite fig7: FAIL" in out
    counterexamples = [line for line in out if line.startswith("counterexample pendant-triangle/nh=")]
    assert len(counterexamples) == 6
    assert all("'edges': [[" in line for line in counterexamples)
    assert cli.main(["verify", "fig7", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_a_check_that_raises_keeps_its_graph(monkeypatch):
    def broken(g, n_h):
        raise GraphError("broken")

    monkeypatch.setattr(theory, "bounds_report", broken)
    failures = run_suite("bounds").failures()
    assert len(failures) == 250
    for check in failures:
        assert check.details["error"] == "broken"
        assert check.details["n"] >= 4 and check.details["edges"]
