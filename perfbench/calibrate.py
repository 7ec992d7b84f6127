"""Fixed pure-Python yardsticks that gauge how fast the machine runs Python now.

On a shared host the same interpreter loop runs at different speeds from
one second to the next, by up to 1.8x, with thread CPU time rising as wall
time does.  The timed workloads therefore run a yardstick beside every
batch they time and report each batch's time as a multiple of the
yardstick's time measured around it.  That unit is called a "cal".  The
yardsticks stand apart from trigasket, so a change to the program moves
the workload's time and not the unit.

There are two, because host load slows arithmetic loops more than
dict-bound work:

* ``loop``: byte indexing, comparisons and integer sums, the work of the
  pure distance kernels and of the word functions.  It creates no
  container object but its iterator.
* ``walk``: a breadth-first walk over the first WALK_LIMIT vertices of a
  fixed random graph of WALK_VERTICES string-named vertices held in a dict,
  the work of the oracle's builds and sweeps.  It creates one dict and one
  deque per pass.

The garbage collector is paused while a yardstick runs, so the program's
collections stay in the program's time, whatever it keeps alive.

Batches of about 20 ms are measured between two runs of the yardstick.  A
call of a second or more is not: the host's speed changes within it, and
its edges say little about its middle.  `Calibrator.call` therefore also
runs the yardstick from a SIGALRM handler every SAMPLE_INTERVAL_S during
the call, takes that time out of the call's own time, and divides by the
mean of all the yardstick times at and inside the call's edges.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from array import array
from collections import deque
from time import perf_counter_ns

CODES = bytes(random.Random("perfbench/calibration").randrange(3) for _ in range(4096))
WEIGHT_CAP = 1 << 40
WALK_VERTICES = 88_575  # as many as the level-11 oracle graph
WALK_DEGREE = 4
WALK_LIMIT = 10_000
SAMPLE_INTERVAL_S = 0.1


def _loop(codes: bytes = CODES) -> int:
    a = b = c = 0
    w = 1
    for x in codes:
        w += w
        if w > WEIGHT_CAP:
            w = 1
        if x != 0:
            a += w
        if x != 1:
            b += w
        if x != 2:
            c += w
    return a + b + c


def _walk_graph() -> dict[str, tuple[str, ...]]:
    rng = random.Random("perfbench/walk")
    names = [f"{rng.getrandbits(32):08x}{i}" for i in range(WALK_VERTICES)]
    return {v: tuple(names[rng.randrange(WALK_VERTICES)] for _ in range(WALK_DEGREE))
            for v in names}


def _walk(adjacency: dict[str, tuple[str, ...]]) -> int:
    start = next(iter(adjacency))
    dist = {start: 0}
    queue = deque([start])
    while queue and len(dist) < WALK_LIMIT:
        v = queue.popleft()
        d = dist[v] + 1
        for other in adjacency[v]:
            if other not in dist:
                dist[other] = d
                queue.append(other)
    return sum(dist.values())


class Calibrator:
    """Times a yardstick on demand; one measurement is the median of
    `passes` runs of it, in ns."""

    def __init__(self, kind: str = "loop", passes: int = 1, warmup: int = 20):
        if kind == "loop":
            self.run = _loop
        elif kind == "walk":
            graph = _walk_graph()
            self.run = lambda: _walk(graph)
        else:
            raise ValueError(f"unknown yardstick {kind!r}")
        self.kind = kind
        self.passes = passes
        self.samples = array("q")  # every measurement, in ns
        self.expected = self.run()
        for _ in range(warmup):
            self.run()
        self.last = self.measure()

    def _time_once(self) -> int:
        """ns for one run of the yardstick.  The collector is paused for
        it, so that a collection the yardstick's allocations would trigger
        is left to the program's next allocation, where it belongs."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter_ns()
            out = self.run()
            ns = perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()
        if out != self.expected:
            raise RuntimeError("calibration yardstick gave a different answer")
        return ns

    def measure(self) -> int:
        ns = int(statistics.median(self._time_once() for _ in range(self.passes)))
        self.samples.append(ns)
        return ns

    def around(self) -> float:
        """The yardstick's time, in ns, around a span that has just ended:
        the mean of the measurement before it and one taken now."""
        now = self.measure()
        unit = (self.last + now) / 2
        self.last = now
        return unit

    def call(self, fn, *args):
        """Run fn(*args) with the yardstick sampled inside it.

        Returns the result (None where the call raised), the call's own
        wall time in ns with the samples taken out, and its cost in cals.
        """
        during = []

        def sample(signum, frame):
            t0 = perf_counter_ns()
            self._time_once()
            during.append(perf_counter_ns() - t0)

        # the handler stays installed: a tick that is still pending when the
        # timer stops then runs the yardstick once more instead of ending
        # the process with the default action
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = perf_counter_ns()
        try:
            result = fn(*args)
        except Exception:  # a raising call is a failed operation, not an abort
            result = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter_ns() - t0
        inside = list(during)
        own = elapsed - sum(inside)
        now = self.measure()
        self.samples.extend(inside)
        unit = statistics.fmean([self.last, *inside, now])
        self.last = now
        return result, own, own / unit

    def median_ms(self) -> float:
        return statistics.median(self.samples) / 1e6
