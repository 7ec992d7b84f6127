"""Run one benchmark workload against the trigasket sources in ./src.

    python3 perfbench/run.py --workload query-l30 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it times the workload with no tracer and prints the
end-to-end metrics; with ``--trace 1`` it runs a fixed unit of the workload
plain and then traced, prints the per-layer metrics and writes the spans to
perfbench/out/.  Every answer is checked outside the timed region.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the environment
and the named metrics of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import inputs, reference  # noqa: E402
from perfbench.perlayer import PER_LAYER_UNITS, TraceCounts, per_layer_metrics  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Tally  # noqa: E402

SRC = ROOT / "src"
SPAN_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 8  # before the timed workload, and as many after it
SETUP_LEVEL = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_cal": "1/cal",
    "op_cal_p50": "cal",
    "op_cal_p90": "cal",
    "op2_cal_p50": "cal",
    "peak_rss_mb": "MB",
}


def time_setups(rng, tally: Tally, repeats: int) -> list[int]:
    """Nanoseconds for each of `repeats` fresh interpreters to import
    trigasket and answer its first distance call."""
    x, y = inputs.address(rng, SETUP_LEVEL), inputs.address(rng, SETUP_LEVEL)
    want = str(reference.distance(x, y))
    code = f"import trigasket; print(trigasket.distance({x!r}, {y!r}))"
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        times.append(perf_counter_ns() - t0)
        tally.record(proc.returncode == 0 and proc.stdout.strip() == want,
                     f"fresh interpreter: {proc.stderr.strip()[-200:]}")
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def environment(tg, args, counts: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "backend": getattr(tg, "BACKEND", None),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": 2 * SETUP_REPEATS if not args.trace else 0,
        **counts,
    }


def timed_run(args, tally: Tally):
    timed, _ = WORKLOADS[args.workload]
    rng = inputs.rng_for(args.workload, args.seed)
    # set-up is timed before and after the workload, so that its median
    # spans two moments of the host's load
    setups = time_setups(rng, tally, SETUP_REPEATS)
    import trigasket as tg

    result = timed(tg, rng, args.seconds, tally)
    setups += time_setups(rng, tally, SETUP_REPEATS)
    setup_s = statistics.median(setups) / 1e9
    rss = peak_rss_mb()
    metrics = {"setup_s": setup_s, **result.metrics, "peak_rss_mb": rss}
    report = {"setup_s": (setup_s, "s"), **result.report,
              "fail_ratio": (tally.failed / max(tally.attempted, 1), "ratio"),
              "peak_rss_mb": (rss, "MB")}
    return tg, metrics, END_TO_END_UNITS, report, result.counts


def traced_run(args, tally: Tally):
    _, unit = WORKLOADS[args.workload]
    rng = inputs.rng_for(args.workload, args.seed)
    import trigasket as tg

    run, check, counts = unit(tg, rng, tally)
    run()  # warm-up, untimed
    t0 = perf_counter_ns()
    plain = run()
    plain_s = (perf_counter_ns() - t0) / 1e9
    check(plain)
    plain = None  # frees a level-11 graph before the traced run

    tracer = Tracer()
    counters = TraceCounts()
    tracer.hooks = counters.hooks(tracer)
    with tracer:
        t0 = perf_counter_ns()
        traced = run()
        traced_s = (perf_counter_ns() - t0) / 1e9
    check(traced)
    traced = None

    spans_path = SPAN_DIR / f"{args.workload}-seed{args.seed}.spans.tsv"
    tracer.write_spans(spans_path)
    metrics = per_layer_metrics(tracer, counters, traced_s, plain_s)
    report = {"plain_s": (plain_s, "s"), "traced_s": (traced_s, "s"),
              "spans": (tracer.span_count, "count"),
              "spans_written": (len(tracer.spans), "count")}
    counts = {**counts, "absent": tracer.absent,
              "spans_file": str(spans_path.relative_to(ROOT))}
    return tg, metrics, PER_LAYER_UNITS, report, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trigasket" / "__init__.py").is_file():
        print(f"no trigasket sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tally = Tally()
    run = traced_run if args.trace else timed_run
    tg, metrics, units, report, counts = run(args, tally)
    print(json.dumps({"env": environment(tg, args, counts)}))
    print(json.dumps({"report": {k: {"value": v, "unit": u}
                                 for k, (v, u) in report.items()},
                      "first_error": tally.first_error}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
