"""Timing and counting wrappers installed around the public calls of each
``equidim`` layer, from outside the package.

A wrapper replaces every module binding of a wrapped function (for example
``empty_bisector_graph`` is bound in ``bisectors``, ``equalizers``,
``suites``, ``theory``, ``cli`` and the package itself), so calls are seen
whichever module makes them.  Each call becomes a span ``(name, start, end,
parent, request)`` kept in memory; :meth:`Tracer.summary` derives inclusive
time, self time and call counts from the spans once the timed phase is over.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

#: ``(module, attribute, span name)`` of every wrapped public function.
TARGETS = (
    ("equidim.graphs", "corona", "graphs.corona"),
    ("equidim.fileio", "parse_edge_list", "fileio.parse"),
    ("equidim.bisectors", "empty_bisector_graph", "bisectors.empty_bisector_graph"),
    ("equidim.covers", "min_cover_size", "covers.min_cover_size"),
    ("equidim.covers", "lexmin_cover", "covers.lexmin_cover"),
    ("equidim.covers", "vertex_cover_number", "covers.vertex_cover_number"),
    ("equidim.equalizers", "xi_bruteforce", "equalizers.xi_bruteforce"),
    ("equidim.equalizers", "xi_total", "equalizers.xi_total"),
    ("equidim.equalizers", "xi_corona_structured", "equalizers.xi_corona_structured"),
    ("equidim.equalizers", "beta_star", "equalizers.beta_star"),
    ("equidim.equalizers", "k_threshold", "equalizers.k_threshold"),
    ("equidim.equalizers", "xi_corona_oracle", "equalizers.xi_corona_oracle"),
    ("equidim.theory", "bounds_report", "theory.bounds_report"),
    ("equidim.suites", "run_suite", "suites.run_suite"),
    ("equidim.cli", "main", "cli.main"),
)
#: The cover stream is a generator: each ``next()`` is one span.
STREAM = ("equidim.covers", "iter_cover_masks", "covers.iter_cover_masks.next")
DISTANCES = "graphs.distances"
#: Callers whose ``lexmin_cover`` calls come from the per-U loop.
PER_U_LOOPS = ("equalizers.xi_corona_structured", "equalizers.beta_star")

_clock = time.perf_counter


class Tracer:
    """Span recorder; one per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # Each span is [name index, start, end, parent span index, request].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([idx, _clock(), 0.0, parent, self.request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, span: int) -> None:
        self.spans[span][2] = _clock()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "suites.run_suite":
                tracer.counts["suites.checks"] += len(result.checks)
            return result

        return wrapper

    def _wrap_stream(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                tracer.counts["covers.covers_streamed"] += 1
                yield item

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target on every ``equidim`` module binding."""
        replacements = {}
        for module, attr, name in TARGETS:
            fn = getattr(sys.modules[module], attr)
            replacements[id(fn)] = (fn, self._wrap(fn, name))
        module, attr, name = STREAM
        fn = getattr(sys.modules[module], attr)
        replacements[id(fn)] = (fn, self._wrap_stream(fn, name))
        for modname, module in list(sys.modules.items()):
            if modname != "equidim" and not modname.startswith("equidim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

        graph_cls = sys.modules["equidim.graphs"].Graph
        prop = graph_cls.__dict__["distances"]
        timed = functools.cached_property(self._wrap(prop.func, DISTANCES))
        timed.__set_name__(graph_cls, "distances")
        graph_cls.distances = timed
        self._restore.append((graph_cls, "distances", prop))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (nested calls of the same
        name counted once) and self seconds (span minus its children)."""
        names = self.names
        spans = self.spans
        calls = Counter()
        inclusive: Counter = Counter()
        self_s: Counter = Counter()
        for span in spans:
            idx, start, end, parent, _ = span
            dur = end - start
            calls[names[idx]] += 1
            self_s[names[idx]] += dur
            if parent >= 0:
                self_s[names[spans[parent][0]]] -= dur
            anc = parent
            while anc >= 0 and spans[anc][0] != idx:
                anc = spans[anc][3]
            if anc < 0:
                inclusive[names[idx]] += dur
        lexmin = self._index.get("covers.lexmin_cover")
        per_u = {self._index[n] for n in PER_U_LOOPS if n in self._index}
        improving = sum(
            1
            for idx, _, _, parent, _ in spans
            if idx == lexmin and parent >= 0 and spans[parent][0] in per_u
        )
        return {
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "lexmin_from_per_u": improving,
        }

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
