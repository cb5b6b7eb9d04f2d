import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_solver_caches, traced_growth

import equidim
from equidim import cli, equalizers
from equidim.cli import main
from equidim.families import cycle_graph, fish_graph, path_graph
from equidim.fileio import MAX_INPUT_ORDER, format_edge_list
from equidim.theory import seeded_corpus


@pytest.fixture()
def fish_file(tmp_path):
    path = tmp_path / "fish.edges"
    path.write_text(format_edge_list(fish_graph()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_edge_list(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "4")
    assert code == 0
    assert out.splitlines()[0] == "4 4"


def test_gen_to_file_and_xi(tmp_path, capsys):
    target = tmp_path / "c5.edges"
    assert main(["gen", "cycle", "5", "-o", str(target)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "xi", str(target))
    assert code == 0
    assert out.startswith("3 ")


def test_gen_pipes_into_xi_via_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "xi", "-")
    assert code == 0 and out.startswith("3 ")


def test_gen_dot(capsys):
    code, out, _ = run(capsys, "gen", "path", "3", "--dot")
    assert code == 0 and out.startswith("graph G {")


def test_empty_bisector_fish(capsys, fish_file):
    code, out, _ = run(capsys, "empty-bisector", fish_file)
    assert code == 0
    assert out == "6 2\n4 5\n4 6\n"


def test_bisector_fish(capsys, fish_file):
    code, out, _ = run(capsys, "bisector", fish_file, "4", "5")
    assert code == 0 and out.strip() == "(empty)"
    code, out, _ = run(capsys, "bisector", fish_file, "1", "2")
    assert code == 0 and out.strip() == "3 4 5 6"


def test_xi_corona_with_decomposition(capsys, fish_file):
    code, out, _ = run(capsys, "xi-corona", fish_file, "--nh", "2")
    assert code == 0
    assert out.startswith("8 ")
    assert "[4]" in out and "[1, 2, 3, 4, 5, 6]" in out


def test_xi_corona_oracle_agreement(capsys, tmp_path):
    from equidim.families import cycle_graph

    g_file = tmp_path / "c4.edges"
    g_file.write_text(format_edge_list(cycle_graph(4)))
    h_file = tmp_path / "p2.edges"
    h_file.write_text(format_edge_list(path_graph(2)))
    code, out, _ = run(
        capsys, "xi-corona", str(g_file), "--nh", "2", "--oracle", str(h_file), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == payload["oracle"] == 6
    assert payload["agree"] is True


def test_xi_corona_oracle_order_mismatch(capsys, fish_file, tmp_path):
    h_file = tmp_path / "p2.edges"
    h_file.write_text(format_edge_list(path_graph(2)))
    code, _, err = run(
        capsys, "xi-corona", fish_file, "--nh", "3", "--oracle", str(h_file)
    )
    assert code == 1 and "order 2" in err


def test_cover_alpha_omega(capsys, fish_file):
    code, out, _ = run(capsys, "cover", fish_file, "--json")
    assert code == 0 and json.loads(out)["value"] == 4
    code, out, _ = run(capsys, "alpha", fish_file, "--json")
    assert code == 0 and json.loads(out)["value"] == 2
    code, out, _ = run(capsys, "omega", fish_file, "--json")
    assert code == 0 and json.loads(out)["value"] == 3


def test_beta_star_and_k_threshold(capsys, fish_file):
    code, out, _ = run(capsys, "beta-star", fish_file, "--json")
    assert code == 0 and json.loads(out)["value"] == 0
    code, out, _ = run(capsys, "k-threshold", fish_file, "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["k"], payload["threshold"], payload["slope"]) == (6, 2, 1)


def test_k_threshold_sweep_csv(capsys, fish_file):
    code, out, _ = run(capsys, "k-threshold", fish_file, "--sweep", "1..4")
    assert code == 0
    assert out.splitlines() == ["nh,xi", "1,6", "2,8", "3,9", "4,10"]


def test_k_threshold_sweep_never_solves_beta_star(capsys, fish_file, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("beta_star called")

    monkeypatch.setattr(equalizers, "beta_star", fail)
    code, out, _ = run(capsys, "k-threshold", fish_file, "--sweep", "1..2")
    assert code == 0
    assert out.splitlines() == ["nh,xi", "1,6", "2,8"]


@pytest.mark.parametrize(
    "n, line",
    [(17, "xi = 8*n(H) + 9 for n(H) > 9"), (28, "xi = 14*n(H) + 14 for n(H) > 14")],
    ids=["P17", "P28"],
)
def test_k_threshold_exact_bound_up_to_the_cover_cap(capsys, tmp_path, n, line):
    path = tmp_path / "p.edges"
    path.write_text(format_edge_list(path_graph(n)))
    code, out, _ = run(capsys, "k-threshold", str(path))
    assert code == 0
    assert out == f"{line} (threshold bound: exact)\n"


def test_k_threshold_sweep_streams_covers_once(capsys, tmp_path, monkeypatch):
    # One staircase answers every copy order of the sweep.
    from equidim import covers
    from equidim.families import pendant_triangle_graph

    stream = covers.iter_cover_masks
    calls = []

    def counted(*args):
        calls.append(args)
        return stream(*args)

    path = tmp_path / "pt.edges"
    path.write_text(format_edge_list(pendant_triangle_graph()))
    monkeypatch.setattr(covers, "iter_cover_masks", counted)
    clear_solver_caches()
    code, out, _ = run(capsys, "k-threshold", str(path), "--sweep", "1..40")
    rows = out.splitlines()
    assert code == 0 and len(rows) == 41
    # fig7's lines 3n(H) + 7 and 4n(H) + 4 cross at n(H) = 3.
    assert rows[1:4] == ["1,8", "2,12", "3,16"] and rows[-1] == "40,127"
    assert len(calls) == 1


def test_forward_check(capsys, tmp_path):
    from equidim.families import k4_leaves_graph

    path = tmp_path / "k4l.edges"
    path.write_text(format_edge_list(k4_leaves_graph()))
    code, out, _ = run(
        capsys, "forward-check", str(path), "--x", "1,2,3,5,6", "--y", "1,2,3,4"
    )
    assert code == 0 and out.strip() == "forward-equalized"
    code, out, _ = run(
        capsys, "forward-check", str(path), "--x", "1,2,3,4", "--y", "1,2,3,5,6"
    )
    assert code == 0 and out.strip() == "not forward-equalized"


@pytest.mark.parametrize(
    "sets",
    [
        ["--x", "-4,0,7,30,101", "--y", "-4,0,7,12"],
        ["--x=-4,0,7,30,101", "--y=-4,0,7,12"],
        ["--x", "-4", "--y", "-4,0,7,12,30,101"],
    ],
    ids=["spaced", "joined", "single"],
)
def test_forward_check_sets_led_by_a_negative_label(capsys, tmp_path, sets):
    path = tmp_path / "sparse.edges"
    path.write_text("6 8\n7 101\n7 -4\n7 30\n7 0\n12 0\n12 -4\n0 -4\n12 7\n")
    code, out, err = run(capsys, "forward-check", str(path), *sets)
    assert (code, out, err) == (0, "forward-equalized\n", "")


def test_bounds(capsys, fish_file):
    code, out, _ = run(capsys, "bounds", fish_file, "--nh", "1", "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["lower"], payload["exact"], payload["upper"]) == (6, 6, 7)


def test_bounds_takes_no_budget(capsys, fish_file):
    # bounds_report takes no order cap, so the flag would go unread.
    code, out, err = run(capsys, "bounds", fish_file, "--nh", "2", "--budget", "3")
    assert code == 1 and out == ""
    assert "--budget" in err


def test_dist(capsys, fish_file):
    code, out, _ = run(capsys, "dist", fish_file, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["labels"] == [1, 2, 3, 4, 5, 6]
    assert payload["matrix"][3][4] == 3


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 0
    assert "suite table1: PASS" in out


def test_verify_json_byte_identical_across_runs(capsys):
    code, first, _ = run(capsys, "verify", "fig7", "--json")
    assert code == 0
    code, second, _ = run(capsys, "verify", "fig7", "--json")
    assert code == 0
    assert first == second


def test_malformed_file_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "xi", str(bad))
    assert code == 1 and "line 2" in err


def test_missing_file_exit_one(capsys):
    code, _, err = run(capsys, "xi", "/no/such/file.edges")
    assert code == 1 and "error:" in err


def test_non_utf8_file_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"\xff\xfe3 2\n1 2\n2 3\n")
    code, out, err = run(capsys, "xi", str(bad))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1


def test_gen_into_missing_directory_exit_one(capsys, tmp_path):
    target = tmp_path / "missing" / "x.edges"
    code, out, err = run(capsys, "gen", "cycle", "4", "-o", str(target))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_gen_order_at_the_input_limit(capsys):
    code, out, _ = run(capsys, "gen", "path", str(MAX_INPUT_ORDER))
    assert code == 0 and out.splitlines()[0] == f"{MAX_INPUT_ORDER} {MAX_INPUT_ORDER - 1}"


@pytest.mark.parametrize("family, param", [("path", "1025"), ("hypercube", "11")])
def test_gen_order_above_the_input_limit_exit_one(capsys, family, param):
    code, out, err = run(capsys, "gen", family, param)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "input limit" in err
    assert err.count("\n") == 1


def test_closed_output_pipe_exits_one_with_one_line(tmp_path):
    # The reader stops after 100 bytes, like ``| head -c 100``, while the
    # C_512 matrix (about 1 MB) is still being written.
    graph = tmp_path / "c512.edges"
    graph.write_text(format_edge_list(cycle_graph(512)))
    env = dict(os.environ, PYTHONPATH=str(Path(equidim.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "equidim.cli", "dist", str(graph), "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b'{"labels":[0,1,2,')
    assert proc.returncode == 1
    assert err == b"error: output pipe closed\n"


def test_budget_violation_exit_one(capsys, tmp_path):
    big = tmp_path / "p20.edges"
    big.write_text(format_edge_list(path_graph(20)))
    code, _, err = run(capsys, "xi", str(big))
    assert code == 1 and "out of budget" in err


def test_budget_flag_only_lowers(capsys, fish_file):
    code, _, err = run(capsys, "xi", fish_file, "--budget", "3")
    assert code == 1 and "out of budget" in err


@pytest.mark.parametrize(
    "command, graph, budget, cap",
    [("xi", path_graph(20), "25", 18), ("beta-star", cycle_graph(29), "40", 28)],
    ids=["xi", "beta-star"],
)
def test_budget_flag_never_raises_a_cap(capsys, tmp_path, command, graph, budget, cap):
    path = tmp_path / "g.edges"
    path.write_text(format_edge_list(graph))
    code, out, err = run(capsys, command, str(path), "--budget", budget)
    assert code == 1 and out == ""
    assert "out of budget" in err and f"cap {cap}" in err


def test_verify_bounds_solves_xi_once_per_corpus_graph(capsys):
    # The suite asks for ξ(G) at five copy orders of each corpus graph.
    clear_solver_caches()
    code, out, _ = run(capsys, "verify", "bounds", "--seed", "0", "--json")
    assert code == 0 and json.loads(out)["passed"]
    info = equalizers.xi_bruteforce.cache_info()
    distinct = len(set(seeded_corpus(0)))
    assert distinct <= 50 and info.misses == distinct
    assert info.hits == 5 * len(seeded_corpus(0)) - distinct


def test_commands_share_one_corona_search_per_copy_order(capsys, fish_file):
    # The staircase cache keys on the graph whatever the budget, so every
    # command below reads one staircase; xi_corona_structured names the
    # same cache.
    clear_solver_caches()
    for argv in (
        ("beta-star", fish_file, "--budget", "10"),
        ("xi-corona", fish_file, "--nh", "1"),
        ("xi-corona", fish_file, "--nh", "1", "--budget", "6"),
        ("k-threshold", fish_file, "--sweep", "1..1"),
        ("k-threshold", fish_file, "--sweep", "1..1", "--budget", "8"),
        ("bounds", fish_file, "--nh", "1"),
    ):
        assert run(capsys, *argv)[0] == 0
    assert equalizers.beta_star.cache_info().misses == 1
    assert equalizers.xi_corona_structured.cache_info().misses == 1


def test_a_long_sweep_keeps_no_witness(capsys, fish_file):
    # Each printed value comes with a witness of about n(H) product
    # vertices; a sweep that kept them would hold about 49 MiB here.
    def sweep():
        assert main(["k-threshold", fish_file, "--sweep", "1..1000"]) == 0

    clear_solver_caches()
    assert traced_growth(sweep) < 5 * 2**20
    assert capsys.readouterr().out.splitlines()[-1] == "1000,1006"


def test_order_above_the_input_limit_exit_one(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{MAX_INPUT_ORDER + 1} 0\n"))
    code, out, err = run(capsys, "dist", "-")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "input limit" in err
    assert err.count("\n") == 1


def test_threads_flag_is_gone(capsys, fish_file):
    code, out, _ = run(capsys, "--threads", "2", "xi", fish_file)
    assert code == 1 and out == ""


@pytest.mark.parametrize(
    "argv, stdin, parsed",
    [(("xi", "-"), "2 1\n0 0\n", 1), (("xi", "-", "--nh", "2"), "2 1\n0 1\n", 0)],
    ids=["malformed-edge-list", "usage-error"],
)
def test_a_failed_request_fails_the_same_way_again(capsys, monkeypatch, argv, stdin, parsed):
    # Neither memo caches a failure: each call parses and raises again.
    clear_solver_caches()
    outcomes = []
    for _ in range(2):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        outcomes.append(run(capsys, *argv))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert cli._parse_args.cache_info().currsize == parsed
    assert cli.parse_edge_list.cache_info().currsize == 0


def test_command_line_memo_is_bounded():
    assert isinstance(cli._parse_args.cache_info().maxsize, int)


def test_a_repeated_command_line_reuses_its_namespace(capsys, fish_file):
    clear_solver_caches()
    argv = ("xi", fish_file, "--json")
    for _ in range(3):
        assert run(capsys, *argv)[0] == 0
    info = cli._parse_args.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # A rebuilt parser parses afresh: no Namespace of the old one is used.
    shared = cli._parse_args(cli._parser(), argv)
    cli._parser.cache_clear()
    assert run(capsys, *argv)[0] == 0
    assert cli._parse_args(cli._parser(), argv) is not shared
    assert cli._parse_args.cache_info().misses == 2


def test_one_parser_serves_consecutive_calls(capsys, fish_file):
    # The parser is built once per process; a call must not see the options
    # of the one before it, nor a usage error in between.
    first = ("xi", fish_file, "--json", "--budget", "10")
    second = ("xi", fish_file)
    alone = []
    for argv in (first, second):
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._parser.cache_clear()
    together = [run(capsys, *first)]
    assert run(capsys, "xi", fish_file, "--nh", "2")[0] == 1
    together.append(run(capsys, *second))
    assert together == alone
    assert alone[0][1] != alone[1][1]


def test_solver_is_looked_up_when_the_command_runs(capsys, fish_file, monkeypatch):
    # Wrappers such as a tracer replace module bindings after the cached
    # parser may exist; the command must still call through them.
    cli._parser()
    seen = []
    real = equalizers.xi_bruteforce

    def spy(g, **kwargs):
        seen.append(g.n)
        return real(g, **kwargs)

    monkeypatch.setattr(equalizers, "xi_bruteforce", spy)
    code, out, _ = run(capsys, "xi", fish_file)
    assert code == 0 and out == "2  witness: [3, 4]\n"
    assert seen == [6]


def test_unknown_subcommand_exit_one(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_family_exit_one(capsys):
    assert main(["gen", "not-a-family"]) == 1


@st.composite
def edge_list_texts(draw):
    """Edge lists of connected graphs on at most 9 vertices (labels from 1),
    some with one fault: a wrong edge count, a self-loop, a label too many,
    or a junk line."""
    n = draw(st.integers(1, 9))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(extra, max_size=8)) if u != v]
    lines = [f"{u + 1} {v + 1}" for u, v in edges]
    fault = draw(st.sampled_from([None, None, None, "count", "loop", "label", "junk"]))
    if fault == "loop":
        lines.append("1 1")
    elif fault == "label":
        lines.append(f"1 {n + 1}")
    elif fault == "junk":
        lines.append(draw(st.text(max_size=6)))
    m = len(lines) + (fault == "count")
    return "\n".join([f"{n} {m}", *lines])


_FUZZ_COMMANDS = (
    ["dist"],
    ["bisector", "1", "2"],
    ["empty-bisector"],
    ["cover"],
    ["alpha"],
    ["omega"],
    ["xi"],
    ["xi-total"],
    ["xi-corona", "--nh", "2"],
    ["beta-star"],
    ["k-threshold"],
    ["k-threshold", "--sweep", "1..3"],
    ["forward-check", "--x", "1,2", "--y", "0,2,3"],
    ["bounds", "--nh", "2"],
)


@settings(max_examples=150, deadline=None)
@given(
    text=st.one_of(edge_list_texts(), st.text(max_size=30)),
    command=st.sampled_from(_FUZZ_COMMANDS),
    extra=st.sampled_from([[], ["--json"], ["--budget", "4"], ["--budget", "0"]]),
)
def test_fuzzed_input_exits_cleanly(text, command, extra):
    argv = [command[0], "-", *command[1:], *extra]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1 and err.getvalue().startswith("error:"):
        assert err.getvalue().count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["xi", "-", "--nh", "2", "--json", "--budget", "x", ""]), max_size=5))
def test_fuzzed_arguments_exit_cleanly(argv):
    with mock.patch("sys.stdin", io.StringIO("3 2\n1 2\n2 3\n")), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)
