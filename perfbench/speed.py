"""Speed probe: puts the host's speed into the benchmark's units.

The benchmark shares a few cores of a host with other tenants.  While they
are busy, the same work runs up to about 1.9x slower, in stretches from a
second to minutes, and a whole 35-second run can fall into one.  Neither
medians nor fastest repetitions remove stretches that long.  So a round
runs a probe, a fixed pure-Python loop that shares no code with
``equidim``, right after each request, and ``run.py`` scales each request
time by the probes on either side of it::

    reported = measured x NOMINAL_S / mean(probe before, probe after)

A reported time reads as the time on a host on which the probe takes
``NOMINAL_S``.  The probe is not the program, so a change to ``equidim``
moves the reported times as much as the measured ones; only the host's
speed cancels.  On a shared 2-vCPU Intel Xeon VM the scaling cut the
spread between repetitions of one request (standard deviation of log
time) from 0.16-0.20 to 0.09-0.11.  It does not cancel exactly: the probe
slows a little more than the package's code, so very busy stretches read
a few per cent fast.
"""

from __future__ import annotations

import time
from itertools import combinations

#: The probe's best time on that VM with no other load, so reported times
#: read as seconds on it.
NOMINAL_S = 0.0007
#: After each request a round probes for at least this share of the
#: request's time (once at the least).
SHARE = 0.05

# A subset scan over bitmasks, the kind of loop the package spends its time
# in: every 3-subset of 16 elements against 40 fixed (u, v, mask) triples.
_TRIPLES = tuple(
    (u % 16, (u * 7 + 3) % 16, (u * 2654435761 >> 3) & 0xFFFF | 1 << (u % 16))
    for u in range(40)
)


def _loop() -> int:
    hits = 0
    for combo in combinations(range(16), 3):
        m = 0
        for x in combo:
            m |= 1 << x
        if all(m >> u & 1 or m >> v & 1 or b & m for u, v, b in _TRIPLES):
            hits += 1
    return hits


def probe_after(request_s: float) -> list[float]:
    """Probe times taken for ``SHARE`` of a request that took ``request_s``."""
    clock = time.perf_counter
    times: list[float] = []
    while not times or sum(times) < SHARE * request_s:
        t0 = clock()
        _loop()
        times.append(clock() - t0)
    return times
