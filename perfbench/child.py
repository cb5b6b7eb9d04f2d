"""One round of one workload, in a fresh interpreter.

Started by ``run.py`` once per round, so the package's ``lru_cache``s and
``cached_property`` values never carry from one round to the next.  Prints
one JSON object on its last stdout line: set-up time, time in requests,
per-request labels and latencies, the speed probe's times around them
(``speed.py``), failures, peak RSS, the cache counts read before exit, a
digest of every result and, when traced, the per-layer span summary.

Usage: python3 perfbench/child.py WORKLOAD SEED ROUND TRACE SPAWNED_AT [SPAN_FILE]
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time


def monotonic() -> float:
    # System-wide clock, so the parent's spawn stamp is comparable.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    workload, seed, round_index, trace, spawned_at = argv[:5]
    span_file = argv[5] if len(argv) > 5 else None
    seed, round_index, trace, spawned_at = int(seed), int(round_index), trace == "1", float(spawned_at)

    import speed
    import workloads
    from equidim import equalizers

    requests = workloads.WORKLOADS[workload](seed, round_index)
    setup_s = monotonic() - spawned_at

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    clock = time.perf_counter
    results = []
    latencies = []
    # probe_s[i] and probe_s[i + 1] are the probe just before and just after
    # request i; probe_s[0] also follows the set-up.
    probe_s = [statistics.median(speed.probe_after(setup_s))]
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            result = request.call()
        except Exception as exc:  # a failed request is counted, not fatal
            result = exc
        latencies.append(clock() - t0)
        results.append(result)
        probe_s.append(statistics.median(speed.probe_after(latencies[-1])))
    wall_s = sum(latencies)

    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    caches = [equalizers.xi_corona_structured.cache_info(), equalizers.beta_star.cache_info()]

    failed = []
    digest = hashlib.sha256()
    for request, result in zip(requests, results):
        try:
            ok = not isinstance(result, Exception) and request.check(result)
        except Exception:  # a check that cannot run on the result fails it
            ok = False
        if not ok:
            failed.append(request.label)
            result = repr(result) if isinstance(result, Exception) else None
        else:
            result = request.digest(result)
        digest.update(json.dumps([request.label, result]).encode("utf-8"))

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "labels": [request.label for request in requests],
        "latencies_s": latencies,
        "probe_s": probe_s,
        "attempted": len(requests),
        "failed": failed,
        "rss_mb": rss_mb,
        "cache": {
            "hits": sum(c.hits for c in caches),
            "misses": sum(c.misses for c in caches),
            "entries": sum(c.currsize for c in caches),
        },
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        if span_file:
            tracer.dump(span_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
