"""Command-line entry point.

Graph arguments are edge-list files; ``-`` reads standard input, so
generator output pipes straight into the solvers.  Every graph subcommand
offers ``--json`` with canonical (sorted-key, fixed-separator) serialization;
identical inputs and seed give byte-identical output.  Exit status: 0 on
success, 1 on precondition, budget, parse, file or output-pipe errors (one
``error:`` line on stderr), 2 when a verification suite reports failures.

Each subcommand binds its runner with ``set_defaults(run=...)``.  The graph
subcommands share :func:`_run_graph`, which loads the graph, checks
``--budget`` and prints what the subcommand's handler returns, as canonical
JSON or as text.  Handlers call solvers through their module, so a wrapped
or patched solver is the one that runs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import lru_cache
from itertools import chain

from . import covers, equalizers, suites, theory
from .bisectors import bisector, empty_bisector_graph
from .errors import EquidimError
from .families import FAMILY_NAMES, FamilySpec, generate
from .fileio import canonical_json, format_edge_list, parse_edge_list, to_dot
from .graphs import Graph, INFINITY


def _load_graph(path: str) -> Graph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise EquidimError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise EquidimError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    return parse_edge_list(text)


def _labels(g: Graph, vertices) -> list:
    return [g.label_of(v) for v in sorted(vertices)]


def _run_gen(args) -> int:
    g = generate(FamilySpec(args.family, tuple(args.params)))
    text = to_dot(g) if args.dot else format_edge_list(g)
    if args.output == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise EquidimError(f"cannot write {args.output}: {exc.strerror}") from None
    return 0


def _run_verify(args) -> int:
    report = suites.run_suite(args.suite, seed=args.seed)
    if args.json:
        print(report.to_json())
    else:
        for check in sorted(report.checks, key=lambda c: c.key):
            print(f"{'PASS' if check.passed else 'FAIL'} {check.key}")
        print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")
        for check in report.failures():
            print(f"counterexample {check.key}: {check.details}")
    return 0 if report.passed else 2


def _run_graph(args) -> int:
    """Run a graph subcommand's handler ``(g, args, budget) -> (payload,
    lines)`` and print the payload as canonical JSON or the text lines."""
    g = _load_graph(args.graph)
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 1:
        raise EquidimError(f"--budget must be positive, got {budget}")
    payload, lines = args.handler(g, args, budget)
    # A payload of None means the output has no JSON form (k-threshold --sweep).
    if args.json and payload is not None:
        lines = [canonical_json(payload)]
    for line in lines:
        print(line)
    return 0


def _dist(g: Graph, args, budget):
    matrix = [[None if d is INFINITY else d for d in row] for row in g.distances]
    lines = (
        f"{g.label_of(v)}: " + " ".join("inf" if d is None else str(d) for d in row)
        for v, row in enumerate(matrix)
    )
    return {"labels": [g.label_of(v) for v in range(g.n)], "matrix": matrix}, lines


def _bisector(g: Graph, args, budget):
    found = _labels(g, bisector(g, g.index_of(args.u), g.index_of(args.v)))
    return {"bisector": found}, [" ".join(str(x) for x in found) if found else "(empty)"]


def _empty_bisector(g: Graph, args, budget):
    ghat = empty_bisector_graph(g).graph
    edges = [sorted((g.label_of(u), g.label_of(v))) for u, v in ghat.edges]
    return {"n": ghat.n, "edges": edges}, format_edge_list(ghat).splitlines()


def _value_and_witness(g: Graph, args, budget):
    module, name = args.solver
    result = getattr(module, name)(g, max_order=budget)
    if result.witness is None:  # only xi-total, when no total equalizer exists
        infinite = "infinite (the empty bisector graph has an edge)"
        return {"value": None, "witness": None}, [infinite]
    witness = _labels(g, result.witness)
    return {"value": result.value, "witness": witness}, [f"{result.value}  witness: {witness}"]


def _xi_corona(g: Graph, args, budget):
    value, *split = equalizers._corona_split(g, args.nh, budget)
    over, base = (_labels(g, part) for part in split)
    payload = {"value": value, "nh": args.nh, "copies_over": over, "base_part": base}
    lines = [f"{value}  copies over {over}; base part {base}"]
    if args.oracle:
        h = _load_graph(args.oracle)
        if h.n != args.nh:
            raise EquidimError(f"--oracle graph has order {h.n}, but --nh is {args.nh}")
        oracle = equalizers._oracle_value(g, h, budget)
        payload["oracle"] = oracle
        payload["agree"] = oracle == value
        lines.append(f"oracle: {oracle} ({'agree' if payload['agree'] else 'DISAGREE'})")
    return payload, lines


def _beta_star(g: Graph, args, budget):
    result = equalizers.beta_star(g, max_order=budget)
    pair = [_labels(g, side) for side in result.decomposition]
    overlap = _labels(g, result.witness)
    payload = {"value": result.value, "overlap": overlap, "pair": pair}
    return payload, [f"{result.value}  pair: {pair}  overlap: {overlap}"]


def _k_threshold(g: Graph, args, budget):
    if args.sweep:
        # CSV of ξ(G ⊙ H) over n(H) = lo..hi, one row printed as each is
        # solved.  The first row is solved before the header is printed, so a
        # budget or connectivity error leaves stdout empty.
        lo, hi = _parse_range(args.sweep)
        rows = (f"{n_h},{equalizers._corona_split(g, n_h, budget)[0]}" for n_h in range(lo, hi + 1))
        return None, chain(["nh,xi", next(rows)], rows)
    line = equalizers.k_threshold(g, max_order=budget)
    text = f"xi = {line.slope}*n(H) + {line.k} for n(H) > {line.threshold}"
    # Always exact; the key stays while the cli-corpus digests and cli_golden.json pin it.
    return {**line._asdict(), "threshold_bound": "exact"}, [f"{text} (threshold bound: exact)"]


def _forward_check(g: Graph, args, budget):
    pair = equalizers.ForwardPair(_parse_set(g, args.x), _parse_set(g, args.y))
    ok = equalizers.forward_equalized(g, pair)
    return {"forward_equalized": ok}, ["forward-equalized" if ok else "not forward-equalized"]


def _bounds(g: Graph, args, budget):
    report = theory.bounds_report(g, args.nh)
    return {"nh": args.nh, **vars(report)}, [
        f"floor {report.floor} | lower {report.lower_weak}/{report.lower} | "
        f"exact {report.exact} | upper {report.upper}/{report.upper_via_xi}"
    ]



@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building its fifteen
    subcommands costs more than a small request."""
    parser = argparse.ArgumentParser(
        prog="equidim",
        description="Exact equidistant dimension of graphs and corona products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a named family as an edge list")
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("params", type=int, nargs="*")
    p.add_argument("-o", "--output", default="-", metavar="FILE")
    p.add_argument("--dot", action="store_true", help="emit DOT instead")
    p.set_defaults(run=_run_gen)

    takes_budget = {}  # graph subcommand parser -> whether it takes --budget

    def graph_command(name: str, help_text: str, handler, budget: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph")
        p.set_defaults(run=_run_graph, handler=handler)
        takes_budget[p] = budget
        return p

    graph_command("dist", "all-pairs distance matrix", _dist, budget=False)
    p = graph_command("bisector", "vertices equidistant from u and v", _bisector, budget=False)
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    graph_command(
        "empty-bisector", "empty bisector graph as an edge list", _empty_bisector, budget=False
    )
    for name, help_text, module, solver in (
        ("cover", "minimum vertex cover", covers, "vertex_cover_number"),
        ("alpha", "maximum independent set", covers, "independence_number"),
        ("omega", "maximum clique", covers, "clique_number"),
        ("xi", "equidistant dimension by exact hitting-set search", equalizers, "xi_bruteforce"),
        ("xi-total", "total equidistant dimension", equalizers, "xi_total"),
    ):
        # The solver goes by name, so it is looked up in its module at each call.
        graph_command(name, help_text, _value_and_witness).set_defaults(solver=(module, solver))

    p = graph_command("xi-corona", "corona dimension for copies of order K", _xi_corona)
    p.add_argument("--nh", type=int, required=True, metavar="K")
    p.add_argument(
        "--oracle",
        metavar="H_FILE",
        help="also brute-force the explicit product with this copy graph",
    )
    graph_command("beta-star", "minimum overlap of a forward-equalized cover pair", _beta_star)
    p = graph_command("k-threshold", "eventual line slope*n(H)+k and its threshold", _k_threshold)
    p.add_argument("--sweep", metavar="A..B", help="CSV of nh,xi over a range")
    p = graph_command("forward-check", "test a pair of vertex sets", _forward_check, budget=False)
    p.add_argument("--x", required=True, metavar="L1,L2,...")
    p.add_argument("--y", required=True, metavar="L1,L2,...")
    # argparse takes a value for an option only if it does not start with
    # "-", or looks like one negative number.  No option here starts with
    # "-" and a digit, so "--x -4,0,7" reads like "--x=-4,0,7".
    p._negative_number_matcher = re.compile(r"-\d")
    p = graph_command("bounds", "bound chain and exact value", _bounds, budget=False)
    p.add_argument("--nh", type=int, required=True, metavar="K")

    # Last, so that every usage line shows them after the command's own options.
    for p, budget in takes_budget.items():
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument(
                "--budget",
                type=int,
                metavar="N",
                help="lower the instance-size cap for exact searches",
            )

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_run_verify)
    return parser


@lru_cache(maxsize=256)
def _parse_args(parser: argparse.ArgumentParser, argv: tuple[str, ...]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, memoized: parsing was about a third of
    a warm graph command.  A usage error, ``--help`` or a bad value
    exits through ``SystemExit``, which is never cached.  The key holds the
    parser, so a rebuilt parser parses afresh.  Every call with one command
    line shares one Namespace, so runners and handlers only read it."""
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(_parser(), tuple(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold that into the error status.
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.run(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except EquidimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Devnull takes what is left, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed", file=sys.stderr)
        return 1
    return code


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise EquidimError(f"bad range {text!r}, expected A..B") from None
    if not 1 <= lo <= hi:
        raise EquidimError(f"bad range {text!r}: need 1 <= A <= B")
    return lo, hi


def _parse_set(g: Graph, text: str) -> frozenset[int]:
    out = set()
    for field in text.split(","):
        field = field.strip()
        if not field:
            continue
        try:
            label = int(field)
        except ValueError:
            raise EquidimError(f"vertex labels must be integers, got {field!r}") from None
        out.add(g.index_of(label))
    return frozenset(out)


if __name__ == "__main__":
    sys.exit(main())
