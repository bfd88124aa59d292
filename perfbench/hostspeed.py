"""Host speed probe: a fixed interpreter loop timed between requests.

On a shared host the speed of one core drifts by tens of percent over tens
of seconds, which is longer than most requests and about as long as a run.
The probe times a fixed pure-Python loop (no program code) just before each
request and once after the last.  A request's reference latency is its wall
latency times NOMINAL_S over the host's probe time around the request: the
median of the probes from WINDOW_S before it starts to WINDOW_S after it
ends, which always includes the probes on either side of it.
Reference latencies read as wall time on a host where the probe takes
NOMINAL_S, and most of the drift cancels in them.  A numpy kernel as the
probe tracked the drift worse: the program's time is mostly interpreter
time, and the drift hits interpreted code harder than vector loops.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

NOMINAL_S = 0.3e-3
WINDOW_S = 1.0


def probe_seconds() -> float:
    """Fastest of three runs of the fixed loop; the minimum drops interrupts."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += (i * 0.5) ** 0.5
        best = min(best, perf_counter() - t0)
    return best


class Probes:
    """Probe times with their time stamps, one before each request."""

    def __init__(self):
        self.seconds = []
        self.stamps = []

    def take(self):
        self.stamps.append(perf_counter())
        self.seconds.append(probe_seconds())

    def reference_latencies(self, latencies):
        """Latencies rescaled to the nominal probe time.

        Probe i was taken just before request i, and one more after the
        last request.
        """
        stamps, seconds = self.stamps, self.seconds
        if len(seconds) != len(latencies) + 1:
            raise ValueError("need one probe before each request and one after the last")
        out = []
        for i, lat in enumerate(latencies):
            lo = bisect.bisect_left(stamps, stamps[i] - WINDOW_S)
            hi = bisect.bisect_right(stamps, stamps[i + 1] + WINDOW_S)
            out.append(lat * NOMINAL_S / statistics.median(seconds[lo:hi]))
        return out
