import dataclasses
import hashlib
import json
import re

import pytest

from conftest import clear_solver_caches, count_table_builds
from equidim import cli, covers, equalizers, theory
from equidim.errors import EquidimError, GraphError
from equidim.suites import SUITES, _blob, run_suite


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


def test_gallai_fails_on_a_wrong_cover_number(monkeypatch):
    # One too high: β comes from the staircase and α from the cover
    # search, so α + β = n breaks; were both one search, it would hold.
    solve = covers.vertex_cover_number

    def off_by_one(g, max_order=None):
        result = solve(g, max_order)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(covers, "vertex_cover_number", off_by_one)
    assert not run_suite("gallai", 0).passed


def test_failures_carry_counterexamples(monkeypatch, capsys):
    # One too high everywhere: every fig7 value check fails, and the
    # verify command prints each failure with its graph.
    solve = equalizers._corona_split

    def off_by_one(g, n_h, max_order=None):
        value, *split = solve(g, n_h, max_order)
        return (value + 1, *split)

    monkeypatch.setattr(equalizers, "_corona_split", off_by_one)
    assert cli.main(["verify", "fig7"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "FAIL pendant-triangle/nh=1" in out
    assert "suite fig7: FAIL" in out
    counterexamples = [line for line in out if line.startswith("counterexample pendant-triangle/nh=")]
    assert len(counterexamples) == 6
    assert all("'edges': [[" in line for line in counterexamples)
    assert cli.main(["verify", "fig7", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["passed"] is False


@pytest.mark.parametrize("seed", [0, 1])
def test_no_suite_builds_a_witness(monkeypatch, seed):
    # Every check compares values, so no suite calls a solver that builds
    # a witness in the product.
    def witness_built(*args, **kw):
        raise AssertionError("a suite built a corona witness")

    monkeypatch.setattr(equalizers, "xi_corona_structured", witness_built)
    monkeypatch.setattr(equalizers, "xi_corona_oracle", witness_built)
    for name in sorted(SUITES):
        report = run_suite(name, seed)
        assert report.passed, (name, [c.key for c in report.failures()][:3])


def test_a_check_that_raises_keeps_its_graph(monkeypatch):
    def broken(g, n_h):
        raise GraphError("broken")

    monkeypatch.setattr(theory, "bounds_report", broken)
    failures = run_suite("bounds").failures()
    assert len(failures) == 250
    for check in failures:
        assert check.details["error"] == "broken"
        assert check.details["n"] >= 4 and check.details["edges"]


CORPUS_SUITES = ("bounds", "gallai", "characterization", "linearity", "g-vs-ghat")


@pytest.mark.parametrize("name", CORPUS_SUITES)
def test_corpus_checks_carry_their_own_graph(name):
    corpus = theory.seeded_corpus(0)
    seen = set()
    for check in run_suite(name).checks:
        match = re.match(r"corpus\[(\d\d)\]/", check.key)
        if match:
            idx = int(match.group(1))
            seen.add(idx)
            blob = {k: check.details[k] for k in ("n", "edges")}
            assert blob == _blob(corpus[idx]), check.key
    assert seen == set(range(len(corpus)))


def _digest(blobs):
    text = json.dumps(blobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: SHA-256 of the canonical JSON of the suites' input graphs, as
#: ``{"n", "edges"}`` blobs in draw order: the seeded corpus and the 30
#: ``bipartite`` samples for seeds 0-5.  A change in how either sampler
#: uses its random draws changes every suite report at that seed.
FROZEN_INPUTS = {
    0: ("26aa7ae0e8dddaa5273b9cffabf88f03d9c9d68f4e89049a2fd55e4f23b8c36b",
        "ed16a9823f5bb58a7ab7c382e4e4395536aaa84fc76a3df8f91f5d70f0e1b183"),
    1: ("8706e7784b7b3c9ad0c593fea259cd2ec569a5ac64f0e7419d896843c2400e06",
        "db5052bfa0e857e207e816c81daa069182352ca8195a04785e7313b9846c42da"),
    2: ("fb1786193f51a3db861d08efec1fe242a5378da0def1665e30a5b4ec66860d04",
        "96fd265b06e529326d500377f34bc3ae1fb1b40473d2a46b491f358b7ca91b78"),
    3: ("7315f783242116f5b0ba331c39bb697a07b0d497e7ee4fccef1f28d224922d91",
        "bb29acc629d7d7726ac71baabbdb2386e6e784816f404e28cc78663226d7f2c3"),
    4: ("e50666a5c187606d0bcabf3d988fc407b58bee2950909b2cf46ff5b3acb57f48",
        "98f60f2ce7d59986b7e7c1270598d3f62197c66d9fea6931b9babb9375f09f1a"),
    5: ("418e22d2b92d8795e467103bbb005ff9b2764e687af379fdae57185cf6d683a7",
        "244184c1fca356326a016ba1b17be615d033adf9cc7e4b782ad18b8748f5c8a4"),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_INPUTS))
def test_suite_inputs_are_frozen(seed):
    corpus_digest, bipartite_digest = FROZEN_INPUTS[seed]
    assert _digest([_blob(g) for g in theory.seeded_corpus(seed)]) == corpus_digest
    samples = [
        {k: c.details[k] for k in ("n", "edges")}
        for c in run_suite("bipartite", seed).checks
        if c.key.endswith("/ghat-complete-bipartite")
    ]
    assert len(samples) == 30
    assert _digest(samples) == bipartite_digest


#: Graphs each suite checks at seed 0: each gets one ``_blob``.
GRAPHS_PER_SUITE = {
    "table1": 1,
    "fig7": 1,
    "families": 27,
    "bounds": 51,
    "bipartite": 30,
    "gallai": 50,
    "characterization": 50,
    "linearity": 50,
    "oracle-equivalence": 44,
    "g-vs-ghat": 50,
}


@pytest.mark.parametrize("name", sorted(GRAPHS_PER_SUITE))
def test_each_graph_blob_is_built_once(name, monkeypatch):
    from equidim import suites

    built = []

    def counting(g):
        built.append(g)
        return _blob(g)

    monkeypatch.setattr(suites, "_blob", counting)
    suites._corpus.cache_clear()  # else a corpus suite reads the blobs another built
    run_suite(name, 0)
    assert len(built) == GRAPHS_PER_SUITE[name]
    assert len({id(g) for g in built}) == len(built)


def test_corpus_suites_share_one_corpus(monkeypatch):
    from equidim import suites

    samples = []
    sample = theory.seeded_corpus

    def counting_sample(seed):
        samples.append(seed)
        return sample(seed)

    monkeypatch.setattr(theory, "seeded_corpus", counting_sample)
    built = count_table_builds(monkeypatch)
    clear_solver_caches()
    for name in CORPUS_SUITES:
        assert run_suite(name, 0).passed, name
    assert samples == [0]
    corpus = [g for _, g, _ in suites._corpus(0)]
    assert len(corpus) == 50
    # Each corpus graph builds its corona tables once, and no copy of one
    # builds them again.
    assert [sum(b is g for b in built) for g in corpus] == [1] * 50
    assert not [b for b in built if b in corpus and not any(b is g for g in corpus)]
    assert suites._corpus.cache_info().maxsize == 1


def test_corpus_memo_holds_one_seed_and_sampling_stays_fresh():
    from equidim import suites

    suites._corpus.cache_clear()
    first = suites._corpus(0)
    assert suites._corpus(0) is first
    assert suites._corpus(3) is not first
    assert suites._corpus.cache_info().currsize == 1
    assert isinstance(first, tuple)
    # The public sampler keeps returning a fresh list of fresh graphs.
    again = theory.seeded_corpus(0)
    assert isinstance(again, list) and again is not theory.seeded_corpus(0)
    assert again == [g for _, g, _ in first]
    assert not any(a is g for a, (_, g, _) in zip(again, first))


def _reports(names, seed):
    return {name: run_suite(name, seed).to_json() for name in names}


# The corpus suites share graphs, tables and blobs, so a suite that edited
# any of them would change the reports of the suites run after it.
@pytest.mark.parametrize("seed", [0, 3])
def test_a_warm_process_reports_what_a_cold_one_does(seed):
    names = sorted(SUITES)
    cold = {}
    for name in names:
        clear_solver_caches()
        cold.update(_reports([name], seed))
    for name in names:
        clear_solver_caches()
        _reports([other for other in reversed(names) if other != name], seed)
        assert _reports([name], seed) == {name: cold[name]}, name
