"""The four workloads, each with a timed run and a fixed traced unit.

A timed run reports end-to-end numbers with no tracer installed; every
answer is checked after its batch, outside the timed region.  A traced run
runs one fixed unit of work twice, plain and then under the `Tracer`, and
reports per-layer numbers and the tracing overhead.

Each workload has a main operation ("op") and a second one ("op2"):

  workload      op                         op2
  query-l30     distance call              corner_distances call
  query-l1000   distance call              corner_distances call
  oracle-l11    BFS sweep at level 11      build("(l)", 11)
  horo-default  classify of one sequence   classify pass over all five

The gated timings are in cals: each batch or call's wall time divided by
the time of a calibration yardstick (`calibrate.py`) measured around it,
and inside it for calls longer than a batch.  The report line also gives
the wall-clock figures.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns

from . import inputs, reference
from .calibrate import Calibrator

QUERY_DISTANCE_SHARE = 0.7  # of the timed budget; corner_distances gets the rest
QUERY_CAL_PASSES = 1  # per batch of about 20 ms; a run has hundreds of batches
ORACLE_CAL_PASSES = 3  # per build or sweep
HORO_CAL_PASSES = 5  # per classify call
QUERY_TRACE_LETTERS = 2_400_000  # traced unit: this many letters per address side
ORACLE_LEVEL = 11
ORACLE_TARGETS_PER_SWEEP = 200
ORACLE_BUILD_SHARE = 0.5  # of the timed budget; sweeps get the rest
ORACLE_TRACE_SWEEPS = 3
HORO_MAX_LEVEL = 16
HORO_WINDOW = 3


@dataclass
class Tally:
    """Operations attempted and failed (raised, or answered wrongly)."""

    attempted: int = 0
    failed: int = 0
    first_error: str | None = None

    def record(self, ok: bool, *what) -> None:
        """Count one operation; `what` describes it, formatted only on failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = " ".join(map(str, what))


@dataclass
class Timed:
    """Result of a timed run: gated metrics, the named report, counts."""

    metrics: dict[str, float]
    report: dict[str, tuple[float, str]]
    counts: dict[str, int]


def percentile(counts: Counter, q: float) -> float:
    """The q-quantile (0 <= q <= 1) of the values in `counts` (value ->
    multiplicity), interpolated linearly between order statistics.  A
    Counter holds a million latencies in far less memory than a list."""
    pos = q * (counts.total() - 1)
    lo = int(pos)
    seen = 0
    low_value = None
    for value in sorted(counts):
        seen += counts[value]
        if low_value is None and seen > lo:
            low_value = value
        if seen > lo + 1:  # value sits at rank lo + 1
            return low_value + (value - low_value) * (pos - lo)
    return low_value


def _call(fn, *args):
    """Call fn, turning any exception into a None answer, which the
    caller's check counts as a failed operation."""
    try:
        return fn(*args)
    except Exception:  # a raising call is a failed operation, not an abort
        return None


# ---------------------------------------------------------------- queries


def _chunk(level: int) -> int:
    # about 20 ms of calls per timed batch on either side of level 60
    return max(50, 60_000 // level)


def _expected_triple(x: str) -> tuple[int, int, int]:
    ref = reference.corner_triple(x)
    return ref["u"], ref["l"], ref["r"]  # CornerTriple's order: du, dl, dr


def _check_batch(name: str, batch, answers, expect, tally: Tally) -> None:
    """Count each call of a batch, failed where its answer differs from
    `expect(*args)`."""
    expected = [expect(*args) for args in batch]
    if answers == expected:
        tally.attempted += len(batch)
        return
    for args, answer, want in zip(batch, answers, expected):
        tally.record(answer == want, name, args)


def _timed_calls(fn, args_list) -> tuple[list, array, int]:
    """Call fn on each argument tuple.

    Returns the answers (None where a call raised), each call's latency in
    ns, and the batch's wall time in ns, which includes the loop and the
    per-call clock reads.
    """
    lat = array("q")
    clock = perf_counter_ns
    answers = []
    keep = answers.append
    stamp = lat.append
    start = clock()
    for args in args_list:
        t0 = clock()
        try:
            answer = fn(*args)
        except Exception:  # counted as a failed operation by the check
            answer = None
        stamp(clock() - t0)
        keep(answer)
    return answers, lat, clock() - start


class _QueryCalls:
    """One kind of call in a query run: its batches, checks and samples.

    Latency quantiles in cals are taken per batch, since each batch has its
    own calibration, and the run reports their medians over batches.  The
    wall-clock latencies go to a histogram of `bin_ns` bins, about a
    thousandth of a call; both keep the benchmark's memory nearly the same
    whatever the host's speed.
    """

    def __init__(self, fn, make_batch, expect, bin_ns: int):
        self.fn = fn
        self.make_batch = make_batch
        self.expect = expect
        self.bin_ns = bin_ns
        self.lat_ns = Counter()  # latency, rounded down to bin_ns -> calls
        self.p50_cal = array("d")  # per batch
        self.p90_cal = array("d")
        self.calls = 0
        self.spent_ns = 0
        self.spent_cal = 0.0

    def run_batch(self, cal: Calibrator, tally: Tally) -> None:
        batch = self.make_batch()
        answers, lat, wall = _timed_calls(self.fn, batch)
        unit = cal.around()
        width = self.bin_ns
        self.lat_ns.update(ns // width * width for ns in lat)
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        self.p50_cal.append(deciles[4] / unit)
        self.p90_cal.append(deciles[8] / unit)
        self.calls += len(batch)
        self.spent_ns += wall
        self.spent_cal += wall / unit
        _check_batch(self.fn.__name__, batch, answers, self.expect, tally)


def query_timed(tg, level: int, rng, seconds: float, tally: Tally) -> Timed:
    chunk = _chunk(level)
    bin_ns = max(1, level // 3)  # a thousandth of a call of ~330 ns per letter
    dist = _QueryCalls(tg.distance, lambda: inputs.address_pairs(rng, level, chunk),
                       reference.distance, bin_ns)
    corner = _QueryCalls(tg.corner_distances,
                         lambda: [(x,) for x in inputs.addresses(rng, level, chunk)],
                         _expected_triple, bin_ns)
    for calls in (dist, corner):  # warm-up, untimed
        batch = calls.make_batch()
        _check_batch(calls.fn.__name__, batch, [_call(calls.fn, *args) for args in batch],
                     calls.expect, tally)

    # batches of the two calls interleave, so both sample the whole run
    cal = Calibrator("loop", QUERY_CAL_PASSES)
    budget_ns = seconds * 1e9
    while not corner.calls or dist.spent_ns + corner.spent_ns < budget_ns:
        total = dist.spent_ns + corner.spent_ns
        behind = dist if dist.spent_ns <= QUERY_DISTANCE_SHARE * total else corner
        behind.run_batch(cal, tally)

    return Timed(
        metrics={"ops_per_cal": dist.calls / dist.spent_cal,
                 "op_cal_p50": statistics.median(dist.p50_cal),
                 "op_cal_p90": statistics.median(dist.p90_cal),
                 "op2_cal_p50": statistics.median(corner.p50_cal)},
        report={"queries_per_s": (dist.calls * 1e9 / dist.spent_ns, "1/s"),
                "query_us_p50": (percentile(dist.lat_ns, 0.5) / 1e3, "us"),
                "query_us_p99": (percentile(dist.lat_ns, 0.99) / 1e3, "us"),
                "corners_per_s": (corner.calls * 1e9 / corner.spent_ns, "1/s"),
                "cal_ms": (cal.median_ms(), "ms")},
        counts={"level": level, "distance_calls": dist.calls,
                "corner_calls": corner.calls, "batch_size": chunk,
                "distance_batches": len(dist.p50_cal),
                "corner_batches": len(corner.p50_cal),
                "calibrations": len(cal.samples), "yardstick": cal.kind})


def query_unit(tg, level: int, rng, tally: Tally):
    """A fixed batch of distance and corner_distances calls, for tracing."""
    count = max(200, QUERY_TRACE_LETTERS // level)
    pairs = inputs.address_pairs(rng, level, count)
    singles = [(x,) for x, _ in pairs[: count // 2]]

    def run(tg=tg):
        distance, corners = tg.distance, tg.corner_distances
        return [distance(x, y) for x, y in pairs], [corners(x) for x, in singles]

    def check(result):
        dists, triples = result
        _check_batch("distance", pairs, dists, reference.distance, tally)
        _check_batch("corner_distances", singles, triples, _expected_triple, tally)

    return run, check, {"level": level, "distance_calls": count,
                        "corner_calls": len(singles)}


# ----------------------------------------------------------------- oracle


def _check_graph(g, n: int, tally: Tally) -> None:
    nv = len(g.adjacency)
    ne = sum(len(ns) for ns in g.adjacency.values()) // 2
    tally.record(nv == (3 ** n + 3) // 2 and ne == 3 ** n,
                 "build level", n, "vertices", nv, "edges", ne)


def _check_sweep(src: str, dmap, vertices, rng, n: int, tally: Tally) -> None:
    ref = reference.corner_triple(src)
    ok = dmap is not None and len(dmap) == len(vertices) and all(
        dmap.get(t * n) == ref[t] for t in reference.LETTERS)
    for _ in range(ORACLE_TARGETS_PER_SWEEP):
        y = vertices[rng.randrange(len(vertices))]
        ok = ok and dmap.get(y) == reference.distance(src, y)
    tally.record(ok, "bfs_distances_from", src)


def oracle_timed(tg, rng, seconds: float, tally: Tally) -> Timed:
    n = ORACLE_LEVEL
    small = tg.build("(l)", 6)  # warm-up, untimed
    _check_graph(small, 6, tally)
    _check_sweep("l" * 6, _call(tg.bfs_distances_from, small, "l" * 6),
                 small.vertices, rng, 6, tally)
    del small

    # builds and sweeps interleave, so both sample the whole run
    cal = Calibrator("walk", ORACLE_CAL_PASSES)
    budget_ns = seconds * 1e9
    build_ns, build_cal = [], []
    sweep_ns, sweep_cal = [], []
    g = vertices = None
    while not sweep_ns or sum(build_ns) + sum(sweep_ns) < budget_ns:
        total = sum(build_ns) + sum(sweep_ns)
        if g is None or sum(build_ns) < ORACLE_BUILD_SHARE * total:
            g = vertices = None  # free the previous graph before building the next
            cal.last = cal.measure()  # freeing it took time since the last one
            g, ns, cost = cal.call(tg.build, "(l)", n)
            if g is None:
                raise RuntimeError(f"build('(l)', {n}) raised")
            build_ns.append(ns)
            build_cal.append(cost)
            _check_graph(g, n, tally)
            vertices = g.vertices
        else:
            src = vertices[rng.randrange(len(vertices))]
            dmap, ns, cost = cal.call(tg.bfs_distances_from, g, src)
            sweep_ns.append(ns)
            sweep_cal.append(cost)
            _check_sweep(src, dmap, vertices, rng, n, tally)
            dmap = None
            cal.last = cal.measure()  # the check ran since the last one

    sweeps = Counter(sweep_cal)
    return Timed(
        metrics={"ops_per_cal": len(sweep_cal) / sum(sweep_cal),
                 "op_cal_p50": percentile(sweeps, 0.5),
                 "op_cal_p90": percentile(sweeps, 0.9),
                 "op2_cal_p50": statistics.median(build_cal)},
        report={"build_s": (statistics.median(build_ns) / 1e9, "s"),
                "bfs_sweep_s": (statistics.median(sweep_ns) / 1e9, "s"),
                "cal_ms": (cal.median_ms(), "ms")},
        counts={"level": n, "builds": len(build_ns), "sweeps": len(sweep_ns),
                "targets_per_sweep": ORACLE_TARGETS_PER_SWEEP,
                "calibrations": len(cal.samples), "yardstick": cal.kind})


def oracle_unit(tg, rng, tally: Tally):
    """One level-11 build and a few sweeps, for tracing."""
    n = ORACLE_LEVEL
    picks = [rng.random() for _ in range(ORACLE_TRACE_SWEEPS)]

    def run(tg=tg):
        g = tg.build("(l)", n)
        vertices = g.vertices
        sources = [vertices[int(p * len(vertices))] for p in picks]
        return g, [(src, tg.bfs_distances_from(g, src)) for src in sources]

    def check(result):
        g, sweeps = result
        _check_graph(g, n, tally)
        vertices = g.vertices
        for src, dmap in sweeps:
            _check_sweep(src, dmap, vertices, rng, n, tally)

    return run, check, {"level": n, "builds": 1, "sweeps": ORACLE_TRACE_SWEEPS}


# ----------------------------------------------------------- horofunction


def horo_sequences(tg):
    """The five sequences with a check of each one's expected verdict."""
    from trigasket import horofunction as hf

    def exact(verdict):
        return lambda c: c.verdict == verdict and c.exact is True

    perturbed = tg.VertexSequence.explicit(
        [tg.canonicalize("u" + "r" * (n - 1) + "u")
         for n in range(1, HORO_MAX_LEVEL + 1)])
    return [
        ("cornerU", tg.VertexSequence.family(hf.CORNER_U),
         exact(hf.VERDICT_BUSEMANN_U)),
        ("cornerR", tg.VertexSequence.family(hf.CORNER_R),
         exact(hf.VERDICT_BUSEMANN_R)),
        ("symmetric", tg.VertexSequence.family(hf.SYMMETRIC),
         exact(hf.VERDICT_SYMMETRIC)),
        ("alternating", tg.VertexSequence.family(hf.ALTERNATING),
         lambda c: (c.verdict == hf.VERDICT_DIVERGENT and c.witness == "u"
                    and set(c.witness_values or ()) == {0, 1})),
        ("perturbed", perturbed,
         lambda c: (c.verdict == hf.VERDICT_SYMMETRIC and c.exact is False
                    and c.bound == 1)),
    ]


def _classify(tg, seq):
    return _call(tg.classify, seq, tg.DEFAULT_RADII, HORO_MAX_LEVEL, HORO_WINDOW)


def horo_timed(tg, rng, seconds: float, tally: Tally) -> Timed:
    seqs = horo_sequences(tg)
    for label, seq, ok in seqs:  # warm-up on the smallest radius, untimed
        tally.record(_call(tg.classify, seq, (2,), HORO_MAX_LEVEL, HORO_WINDOW)
                     is not None, "warm-up classify", label)

    cal = Calibrator("loop", HORO_CAL_PASSES)
    budget_ns = int(seconds * 1e9)
    op_cal = Counter()
    pass_ns, pass_cal = [], []
    while sum(pass_ns) < budget_ns:
        order = seqs[:]
        rng.shuffle(order)
        results = []
        cal.last = cal.measure()  # the previous pass's checks ran since
        spent_ns = spent_cal = 0
        for label, seq, ok in order:
            res, ns, cost = cal.call(tg.classify, seq, tg.DEFAULT_RADII,
                                     HORO_MAX_LEVEL, HORO_WINDOW)
            results.append(res)
            op_cal[cost] += 1
            spent_ns += ns
            spent_cal += cost
        pass_ns.append(spent_ns)
        pass_cal.append(spent_cal)
        for (label, seq, ok), res in zip(order, results):
            tally.record(res is not None and ok(res), "classify", label)

    return Timed(
        metrics={"ops_per_cal": op_cal.total() / sum(pass_cal),
                 "op_cal_p50": percentile(op_cal, 0.5),
                 "op_cal_p90": percentile(op_cal, 0.9),
                 "op2_cal_p50": statistics.median(pass_cal)},
        report={"classify_pass_s": (statistics.median(pass_ns) / 1e9, "s"),
                "cal_ms": (cal.median_ms(), "ms")},
        counts={"passes": len(pass_ns), "classify_calls": op_cal.total(),
                "max_level": HORO_MAX_LEVEL, "window": HORO_WINDOW,
                "calibrations": len(cal.samples), "yardstick": cal.kind})


def horo_unit(tg, rng, tally: Tally):
    """One classify pass over the five sequences, for tracing."""
    seqs = horo_sequences(tg)
    rng.shuffle(seqs)

    def run(tg=tg):
        return [_classify(tg, seq) for _, seq, _ in seqs]

    def check(results):
        for (label, _, ok), res in zip(seqs, results):
            tally.record(res is not None and ok(res), "classify", label)

    return run, check, {"passes": 1, "classify_calls": len(seqs),
                        "max_level": HORO_MAX_LEVEL, "window": HORO_WINDOW}


# ---------------------------------------------------------------- registry

WORKLOADS = {
    "query-l30": (lambda tg, rng, s, t: query_timed(tg, 30, rng, s, t),
                  lambda tg, rng, t: query_unit(tg, 30, rng, t)),
    "query-l1000": (lambda tg, rng, s, t: query_timed(tg, 1000, rng, s, t),
                    lambda tg, rng, t: query_unit(tg, 1000, rng, t)),
    "oracle-l11": (oracle_timed, oracle_unit),
    "horo-default": (horo_timed, horo_unit),
}
