"""Command-line entry point.

Graph arguments are edge-list files; ``-`` reads standard input, so
generator output pipes straight into the solvers.  Every subcommand offers
``--json`` with canonical (sorted-key, fixed-separator) serialization;
identical inputs and seed give byte-identical output.  Exit status: 0 on
success, 1 on precondition, budget or parse errors, 2 when a verification
suite reports failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import covers, equalizers, suites, theory
from .bisectors import bisector, empty_bisector_graph
from .errors import EquidimError
from .families import FAMILY_NAMES, FamilySpec, generate
from .fileio import format_edge_list, parse_edge_list, to_dot
from .graphs import Graph, INFINITY


def _load_graph(path: str) -> Graph:
    if path == "-":
        return parse_edge_list(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise EquidimError(f"cannot read {path}: {exc.strerror}") from None


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _labels(g: Graph, vertices) -> list:
    return [g.label_of(v) for v in sorted(vertices)]


def _budget(args) -> int | None:
    value = getattr(args, "budget", None)
    if value is None:
        return None
    if value < 1:
        raise EquidimError(f"--budget must be positive, got {value}")
    return value


def _add_common(sub, budget: bool = True) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    if budget:
        sub.add_argument(
            "--budget",
            type=int,
            default=None,
            metavar="N",
            help="lower the instance-size cap for exact searches",
        )


def main(argv: list[str] | None = None) -> int:
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

    p = sub.add_parser("dist", help="all-pairs distance matrix")
    p.add_argument("graph")
    _add_common(p, budget=False)

    p = sub.add_parser("bisector", help="vertices equidistant from u and v")
    p.add_argument("graph")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    _add_common(p, budget=False)

    p = sub.add_parser("empty-bisector", help="empty bisector graph as an edge list")
    p.add_argument("graph")
    _add_common(p, budget=False)

    for name, help_text in (
        ("cover", "minimum vertex cover"),
        ("alpha", "maximum independent set"),
        ("omega", "maximum clique"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph")
        _add_common(p)

    p = sub.add_parser("xi", help="equidistant dimension by subset scan")
    p.add_argument("graph")
    _add_common(p)

    p = sub.add_parser("xi-total", help="total equidistant dimension")
    p.add_argument("graph")
    _add_common(p)

    p = sub.add_parser("xi-corona", help="corona dimension for copies of order K")
    p.add_argument("graph")
    p.add_argument("--nh", type=int, required=True, metavar="K")
    p.add_argument(
        "--oracle",
        metavar="H_FILE",
        default=None,
        help="also brute-force the explicit product with this copy graph",
    )
    _add_common(p)

    p = sub.add_parser("beta-star", help="minimum overlap of a forward-equalized cover pair")
    p.add_argument("graph")
    _add_common(p)

    p = sub.add_parser("k-threshold", help="eventual line slope*n(H)+k and its threshold")
    p.add_argument("graph")
    p.add_argument("--sweep", metavar="A..B", default=None, help="CSV of nh,xi over a range")
    _add_common(p)

    p = sub.add_parser("forward-check", help="test a pair of vertex sets")
    p.add_argument("graph")
    p.add_argument("--x", required=True, metavar="L1,L2,...")
    p.add_argument("--y", required=True, metavar="L1,L2,...")
    _add_common(p, budget=False)

    p = sub.add_parser("bounds", help="bound chain and exact value")
    p.add_argument("graph")
    p.add_argument("--nh", type=int, required=True, metavar="K")
    _add_common(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold that into the error status.
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(args)
    except EquidimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "gen":
        g = generate(FamilySpec(args.family, tuple(args.params)))
        text = to_dot(g) if args.dot else format_edge_list(g)
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0

    if args.command == "verify":
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

    g = _load_graph(args.graph)
    budget = _budget(args) if hasattr(args, "budget") else None

    if args.command == "dist":
        matrix = [
            [None if d is INFINITY else d for d in row] for row in g.distances
        ]
        if args.json:
            _emit_json({"labels": [g.label_of(v) for v in range(g.n)], "matrix": matrix})
        else:
            for v, row in enumerate(matrix):
                cells = " ".join("inf" if d is None else str(d) for d in row)
                print(f"{g.label_of(v)}: {cells}")
        return 0

    if args.command == "bisector":
        found = bisector(g, g.index_of(args.u), g.index_of(args.v))
        if args.json:
            _emit_json({"bisector": _labels(g, found)})
        else:
            print(" ".join(str(x) for x in _labels(g, found)) if found else "(empty)")
        return 0

    if args.command == "empty-bisector":
        ghat = empty_bisector_graph(g).graph
        if args.json:
            _emit_json(
                {
                    "n": ghat.n,
                    "edges": [
                        sorted((g.label_of(u), g.label_of(v))) for u, v in ghat.edges
                    ],
                }
            )
        else:
            sys.stdout.write(format_edge_list(ghat))
        return 0

    if args.command in ("cover", "alpha", "omega"):
        op = {
            "cover": covers.vertex_cover_number,
            "alpha": covers.independence_number,
            "omega": covers.clique_number,
        }[args.command]
        result = op(g, max_order=budget)
        if args.json:
            _emit_json({"value": result.value, "witness": _labels(g, result.witness)})
        else:
            print(f"{result.value}  witness: {_labels(g, result.witness)}")
        return 0

    if args.command == "xi":
        result = equalizers.xi_bruteforce(g, max_order=budget)
        if args.json:
            _emit_json({"value": result.value, "witness": _labels(g, result.witness)})
        else:
            print(f"{result.value}  witness: {_labels(g, result.witness)}")
        return 0

    if args.command == "xi-total":
        result = equalizers.xi_total(g, max_order=budget)
        if result.witness is None:
            if args.json:
                _emit_json({"value": None, "witness": None})
            else:
                print("infinite (the empty bisector graph has an edge)")
        else:
            if args.json:
                _emit_json({"value": result.value, "witness": _labels(g, result.witness)})
            else:
                print(f"{result.value}  witness: {_labels(g, result.witness)}")
        return 0

    if args.command == "xi-corona":
        result = equalizers.xi_corona_structured(g, args.nh, max_order=budget)
        upper, lower = result.decomposition
        payload = {
            "value": result.value,
            "nh": args.nh,
            "copies_over": _labels(g, upper),
            "base_part": _labels(g, lower),
        }
        if args.oracle:
            h = _load_graph(args.oracle)
            if h.n != args.nh:
                raise EquidimError(
                    f"--oracle graph has order {h.n}, but --nh is {args.nh}"
                )
            oracle = equalizers.xi_corona_oracle(g, h, max_order=budget)
            payload["oracle"] = oracle.value
            payload["agree"] = oracle.value == result.value
        if args.json:
            _emit_json(payload)
        else:
            print(
                f"{result.value}  copies over {payload['copies_over']}; "
                f"base part {payload['base_part']}"
            )
            if args.oracle:
                print(f"oracle: {payload['oracle']} ({'agree' if payload['agree'] else 'DISAGREE'})")
        return 0

    if args.command == "beta-star":
        result = equalizers.beta_star(g, max_order=budget)
        upper, lower = result.pair
        payload = {
            "value": result.value,
            "overlap": _labels(g, result.witness),
            "pair": [_labels(g, upper), _labels(g, lower)],
        }
        if args.json:
            _emit_json(payload)
        else:
            print(f"{result.value}  pair: {payload['pair']}  overlap: {payload['overlap']}")
        return 0

    if args.command == "k-threshold":
        line = equalizers.k_threshold(g, max_order=budget)
        if args.sweep:
            lo, hi = _parse_range(args.sweep)
            print("nh,xi")
            for n_h in range(lo, hi + 1):
                print(f"{n_h},{equalizers.xi_corona_structured(g, n_h, max_order=budget).value}")
            return 0
        payload = {
            "k": line.k,
            "threshold": line.threshold,
            "slope": line.slope,
            "threshold_bound": line.threshold_bound,
        }
        if args.json:
            _emit_json(payload)
        else:
            print(
                f"xi = {line.slope}*n(H) + {line.k} for n(H) > {line.threshold}"
                f" (threshold bound: {line.threshold_bound})"
            )
        return 0

    if args.command == "forward-check":
        pair = equalizers.ForwardPair(_parse_set(g, args.x), _parse_set(g, args.y))
        ok = equalizers.forward_equalized(g, pair)
        if args.json:
            _emit_json({"forward_equalized": ok})
        else:
            print("forward-equalized" if ok else "not forward-equalized")
        return 0

    if args.command == "bounds":
        report = theory.bounds_report(g, args.nh)
        payload = {
            "nh": report.n_h,
            "floor": report.floor,
            "lower_weak": report.lower_weak,
            "lower": report.lower,
            "upper": report.upper,
            "upper_via_xi": report.upper_via_xi,
            "exact": report.exact,
        }
        if args.json:
            _emit_json(payload)
        else:
            print(
                f"floor {report.floor} | lower {report.lower_weak}/{report.lower} | "
                f"exact {report.exact} | upper {report.upper}/{report.upper_via_xi}"
            )
        return 0

    raise EquidimError(f"unknown command {args.command!r}")


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
