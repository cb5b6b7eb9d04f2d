"""Named verification suites: each turns a batch of statements about the
corona dimension into machine-checkable pass/fail records.

Reports are plain data with a canonical JSON form: checks are sorted by
key and serialization uses sorted keys and fixed separators, so identical
inputs and seed produce byte-identical output.  Failures are data, not
exceptions, and carry the offending graph as an edge list, except two
fixed-example checks that carry only their values:
``pendant-triangle/line/nh=…`` in :func:`suite_fig7` and
``fish/decomposition-…-valid`` in :func:`suite_table1`.

The five corpus suites (bounds, gallai, characterization, linearity and
g-vs-ghat) share one seeded corpus per process, memoized for one seed.
Every check compares values, so the suites read the corona dimension off
``equalizers._corona_split`` and ``_oracle_value``, which build no witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from . import covers, equalizers, theory
from .bisectors import empty_bisector_graph
from .errors import EquidimError
from .families import FamilySpec, generate
from .fileio import canonical_json
from .graphs import Graph


@dataclass
class CheckResult:
    key: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    def record(self, key: str, fn, **extra) -> None:
        """Passes with the details ``fn()`` returns; an exception inside it
        fails the check instead of aborting the suite.  ``extra`` joins the
        details of either outcome."""
        try:
            self.checks.append(CheckResult(key, True, {**fn(), **extra}))
        except (EquidimError, AssertionError) as exc:
            self.checks.append(CheckResult(key, False, {"error": str(exc), **extra}))

    def expect(self, key: str, actual, expected, **extra) -> None:
        self.claim(key, actual == expected, actual=actual, expected=expected, **extra)

    def claim(self, key: str, ok: bool, **details) -> None:
        self.checks.append(CheckResult(key, bool(ok), details))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_jsonable(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"key": c.key, "passed": c.passed, "details": c.details}
                for c in sorted(self.checks, key=lambda c: c.key)
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_jsonable())


def _blob(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


@lru_cache(maxsize=1)
def _corpus(seed: int) -> tuple[tuple[str, Graph, dict], ...]:
    """The seeded corpus as ``(tag, g, blob)``: the ``corpus[NN]`` key prefix
    and one edge-list blob per graph, shared by every check on it.  Kept for
    the last seed only, so the corpus suites at one seed share its graphs,
    every table built on them and their blobs, which no check may edit."""
    return tuple(
        (f"corpus[{idx:02d}]", g, _blob(g)) for idx, g in enumerate(theory.seeded_corpus(seed))
    )


# -- individual suites ----------------------------------------------------------


def suite_table1(report: SuiteReport) -> None:
    """Reference value table for the fish example: sharp lower bound, the two
    canonical decompositions, the general upper bound, and the exact value
    for copy orders one to three."""
    g = generate(FamilySpec("fish"))
    ghat = empty_bisector_graph(g).graph
    u1 = frozenset({g.index_of(4)})
    l1 = frozenset(range(g.n))
    u2 = frozenset({g.index_of(3), g.index_of(4)})
    l2 = frozenset(g.index_of(x) for x in (1, 2, 5, 6))
    for umask, lmask, tag in ((u1, l1, "s1"), (u2, l2, "s2")):
        report.claim(
            f"fish/decomposition-{tag}-valid",
            covers.is_vertex_cover(ghat, umask)
            and covers.is_vertex_cover(ghat, lmask)
            and equalizers.forward_equalized(g, equalizers.ForwardPair(umask, lmask)),
        )
    expected = {1: (6, 7, 6, 7, 6), 2: (7, 8, 8, 8, 8), 3: (8, 9, 10, 9, 9)}
    blob = _blob(g)
    for n_h, row in expected.items():
        bounds = theory.bounds_report(g, n_h)
        s1 = len(u1) * n_h + len(l1)
        s2 = len(u2) * n_h + len(l2)
        got = (bounds.lower, s1, s2, bounds.upper, bounds.exact)
        report.expect(f"fish/nh={n_h}", got, row, **blob)


def suite_fig7(report: SuiteReport) -> None:
    """Two-slope curve of the pendant-triangle example: the exact values sit
    on one line up to copy order two and on a flatter line afterwards."""
    g = generate(FamilySpec("pendant-triangle"))
    expected = {1: 8, 2: 12, 3: 16, 4: 19, 5: 22, 6: 25}
    blob = _blob(g)
    for n_h, want in expected.items():
        got = equalizers._corona_split(g, n_h)[0]
        report.expect(f"pendant-triangle/nh={n_h}", got, want, **blob)
        line = 4 * n_h + 4 if n_h <= 2 else 3 * n_h + 7
        report.expect(f"pendant-triangle/line/nh={n_h}", got, line)


_FAMILY_SPECS = tuple(
    FamilySpec(name, p)
    for name, params in (
        ("complete", ((2,), (3,), (4,), (5,))),
        ("complete-bipartite", ((1, 1), (1, 2), (2, 2))),
        ("complete-multipartite", ((1, 1, 1), (1, 1, 2), (1, 2, 2))),
        ("wheel", ((4,), (5,), (6,))),
        ("hypercube", ((1,), (2,), (3,))),
        ("path", ((2,), (3,), (4,), (5,))),
        ("cycle", ((3,), (4,), (5,), (6,))),
        ("bistar", ((1, 1), (1, 2), (2, 2))),
    )
    for p in params
)


def suite_families(report: SuiteReport) -> None:
    """Closed formulas against the structured solver on the smallest members
    of every covered family; a flagged clause (bistar) is checked against
    its bipartite-rule value rather than its published expression."""
    for spec in _FAMILY_SPECS:
        g = generate(spec)
        blob = _blob(g)
        for n_h in (1, 2, 3):
            formula = theory.closed_formula(spec, n_h)
            exact = equalizers._corona_split(g, n_h)[0]
            key = f"{spec.name}{list(spec.params)}/nh={n_h}"
            if formula.alternate_value is not None:
                report.claim(
                    key,
                    exact == formula.alternate_value and exact != formula.value,
                    actual=exact,
                    bipartite_rule=formula.alternate_value,
                    published=formula.value,
                    **blob,
                )
            else:
                report.expect(key, exact, formula.value, **blob)


def suite_bounds(report: SuiteReport) -> None:
    """Bound chains: the fixed worked examples first, then the seeded random
    corpus for copy orders one to five."""
    chorded = generate(FamilySpec("chorded-path"))
    chorded_blob = _blob(chorded)
    beta, alpha = equalizers.ghat_stats(chorded)
    report.expect("chorded-path/beta-alpha", (beta, alpha), (4, 3), **chorded_blob)
    report.expect(
        "chorded-path/overlap", equalizers.beta_star(chorded).value, 1, **chorded_blob
    )
    for n_h in (1, 2, 3, 4):
        report.expect(
            f"chorded-path/nh={n_h}",
            equalizers._corona_split(chorded, n_h)[0],
            4 * n_h + 4,
            **chorded_blob,
        )
    for tag, g, blob in _corpus(report.seed):
        for n_h in range(1, 6):
            report.record(
                f"{tag}/nh={n_h}",
                lambda g=g, n_h=n_h: {"exact": theory.bounds_report(g, n_h).exact},
                **blob,
            )


def suite_bipartite(report: SuiteReport) -> None:
    """Bipartite base graphs: the empty bisector graph is complete bipartite
    on the same color classes, and the two-coloring formula matches the
    structured solver."""
    rng = random.Random(report.seed)
    samples = [theory.random_connected_bipartite(rng, rng.randint(2, 12)) for _ in range(30)]
    for idx, g in enumerate(samples):
        big, small = theory.two_coloring(g)
        ghat = empty_bisector_graph(g).graph
        blob = _blob(g)
        want_edges = {
            (min(u, v), max(u, v)) for u in big for v in small
        }
        report.claim(
            f"bipartite[{idx:02d}]/ghat-complete-bipartite",
            set(ghat.edges) == want_edges,
            **blob,
        )
        for n_h in range(1, 5):
            report.expect(
                f"bipartite[{idx:02d}]/nh={n_h}",
                equalizers._corona_split(g, n_h)[0],
                theory.bipartite_formula(g, n_h),
                **blob,
            )


def suite_gallai(report: SuiteReport) -> None:
    """Cover number plus independence number equals the order, checked on
    the empty bisector graphs of the random corpus."""
    for tag, g, blob in _corpus(report.seed):
        ghat = empty_bisector_graph(g).graph
        # Two searches, so the sum can miss n: β is the staircase's first
        # cover, α comes from a cover search on the Ĝ graph.
        beta = equalizers.ghat_stats(g)[0]
        alpha = covers.independence_number(ghat).value
        report.expect(f"{tag}/gallai", alpha + beta, ghat.n, **blob)


def suite_characterization(report: SuiteReport) -> None:
    """The predicate for the corona dimension equalling the base order agrees
    with the exact value on every corpus instance."""
    for tag, g, blob in _corpus(report.seed):
        for n_h in range(1, 6):
            predicted, clause = theory.xi_equals_order_characterization(g, n_h)
            exact = equalizers._corona_split(g, n_h)[0]
            report.claim(
                f"{tag}/nh={n_h}",
                predicted == (exact == g.n),
                predicted=predicted,
                clause=clause,
                exact=exact,
                **blob,
            )


def suite_linearity(report: SuiteReport) -> None:
    """Beyond the threshold the exact values sit exactly on the slope/intercept
    line and use a smallest cover; at or below it they stay on or under it."""
    for tag, g, blob in _corpus(report.seed):
        line = equalizers.k_threshold(g)
        for n_h in range(1, line.threshold + 5):
            value, upper, _ = equalizers._corona_split(g, n_h)
            wanted = line.slope * n_h + line.k
            if n_h > line.threshold:
                report.expect(f"{tag}/on-line/nh={n_h}", value, wanted, **blob)
                report.claim(
                    f"{tag}/minimum-cover/nh={n_h}",
                    len(upper) == line.slope,
                    **blob,
                )
            else:
                report.claim(
                    f"{tag}/under-line/nh={n_h}",
                    value <= wanted,
                    actual=value,
                    line=wanted,
                    **blob,
                )


def suite_oracle_equivalence(report: SuiteReport) -> None:
    """The structured solver equals the product-graph exact search on every
    connected base graph of order at most four, and the oracle value depends
    on the copy graph only through its order."""
    small_h = {
        "N1": generate(FamilySpec("empty", (1,))),
        "N2": generate(FamilySpec("empty", (2,))),
        "P2": generate(FamilySpec("path", (2,))),
    }
    order3_h = {
        "P3": generate(FamilySpec("path", (3,))),
        "N3": generate(FamilySpec("empty", (3,))),
        "K3": generate(FamilySpec("complete", (3,))),
    }
    for n in range(1, 5):
        for idx, g in enumerate(theory.all_connected_graphs(n)):
            blob = _blob(g)
            for tag, h in small_h.items():
                report.expect(
                    f"n={n}[{idx:02d}]/{tag}",
                    equalizers._corona_split(g, h.n)[0],
                    equalizers._oracle_value(g, h),
                    **blob,
                )
            if n <= 3:
                values = {
                    tag: equalizers._oracle_value(g, h)
                    for tag, h in order3_h.items()
                }
                report.claim(
                    f"n={n}[{idx:02d}]/order-only",
                    len(set(values.values())) == 1,
                    **values,
                    **blob,
                )


def suite_g_vs_ghat(report: SuiteReport) -> None:
    """Relations between a graph and its empty bisector graph: dimension,
    maximum degree and clique number against cover/independence numbers,
    odd distances on its edges, and the eccentricity-two and universal-vertex
    special cases."""
    for tag, g, blob in _corpus(report.seed):
        beta, alpha = equalizers.ghat_stats(g)
        ghat = empty_bisector_graph(g).graph
        max_degree = max(g.degree(v) for v in range(g.n))
        xi = equalizers.xi_bruteforce(g).value
        report.claim(f"{tag}/xi-vs-beta", xi >= beta, xi=xi, beta=beta, **blob)
        report.claim(
            f"{tag}/max-degree-vs-alpha",
            max_degree <= alpha,
            max_degree=max_degree,
            alpha=alpha,
            **blob,
        )
        omega = covers.clique_number(g).value
        report.claim(
            f"{tag}/clique-vs-alpha", omega <= alpha, omega=omega, alpha=alpha, **blob
        )
        report.claim(
            f"{tag}/odd-distances",
            all(g.distance(u, v) % 2 == 1 for u, v in ghat.edges),
            **blob,
        )
        low_ecc = [v for v in range(g.n) if g.eccentricities[v] <= 2]
        if low_ecc:
            u = low_ecc[0]
            nbhd = set(g.neighbors(u))
            report.claim(
                f"{tag}/ecc2-bipartition",
                all((a in nbhd) != (b in nbhd) for a, b in ghat.edges),
                vertex=u,
                **blob,
            )
            report.expect(f"{tag}/ecc2-overlap", equalizers.beta_star(g).value, 0, **blob)
            ecc2 = theory.eccentricity2_case(g, 2)
            if ecc2.exact is not None:
                report.expect(
                    f"{tag}/ecc2-exact",
                    equalizers._corona_split(g, 2)[0],
                    ecc2.exact,
                    **blob,
                )
        if max_degree == g.n - 1:
            for n_h in (1, 2, 3):
                report.expect(
                    f"{tag}/universal/nh={n_h}",
                    equalizers._corona_split(g, n_h)[0],
                    theory.universal_vertex_formula(g, n_h),
                    **blob,
                )


SUITES = {
    "table1": suite_table1,
    "fig7": suite_fig7,
    "families": suite_families,
    "bounds": suite_bounds,
    "bipartite": suite_bipartite,
    "gallai": suite_gallai,
    "characterization": suite_characterization,
    "linearity": suite_linearity,
    "oracle-equivalence": suite_oracle_equivalence,
    "g-vs-ghat": suite_g_vs_ghat,
}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    """Build suite ``name``'s report at ``seed``; the suite records into it."""
    if name not in SUITES:
        raise EquidimError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        )
    report = SuiteReport(name, seed)
    SUITES[name](report)
    return report

