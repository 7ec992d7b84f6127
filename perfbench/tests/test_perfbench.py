"""Tests of the benchmark itself: reference, inputs, tracer and contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import ast
import gc
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest

from perfbench import calibrate, inputs, reference
from perfbench.perlayer import PER_LAYER_UNITS
from perfbench.run import END_TO_END_UNITS
from perfbench.tracer import Tracer
from perfbench.workloads import percentile

ROOT = Path(__file__).resolve().parents[2]


# -- reference --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_reference_matches_bfs(n):
    import trigasket as tg

    g = tg.build("(l)", n)
    vs = g.vertices
    rng = random.Random(n)
    sources = vs if n <= 4 else rng.sample(vs, 40)
    for x in sources:
        dmap = tg.bfs_distances_from(g, x)
        trip = reference.corner_triple(x)
        assert trip == {t: dmap[t * n] for t in "lru"}, x
        for form in tg.identification_class(x):
            assert reference.corner_triple(form) == trip, form
        targets = vs if n <= 4 else rng.sample(vs, min(200, len(vs)))
        for y in targets:
            assert reference.distance(x, y) == dmap[y], (x, y)
            assert reference.distance(y, x) == dmap[y], (y, x)


def test_reference_imports_nothing_from_the_program():
    tree = ast.parse((ROOT / "perfbench" / "reference.py").read_text())
    imported = [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [getattr(node, "module", None) for node in imported] == ["__future__"]


# -- inputs -----------------------------------------------------------------


def test_inputs_repeat_for_one_seed_and_differ_for_another():
    def draw(seed):
        rng = inputs.rng_for("query-l30", seed)
        return inputs.address_pairs(rng, 30, 50), inputs.address(rng, 1000)

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    assert inputs.address_pairs(inputs.rng_for("query-l1000", 7), 30, 50) != draw(7)[0]
    pairs, long = draw(7)
    assert all(len(x) == len(y) == 30 and set(x + y) <= set("lru") for x, y in pairs)
    assert len(long) == 1000 and set(long) == set("lru")


@pytest.mark.parametrize("size", [1, 2, 7, 501])
def test_percentile_matches_statistics(size):
    rng = random.Random(size)
    values = [rng.randrange(40) for _ in range(size)]
    counts = Counter(values)
    assert percentile(counts, 0) == min(values)
    assert percentile(counts, 1) == max(values)
    if size > 1:
        for n, k in ((2, 1), (10, 9), (100, 99)):
            q = k / n
            want = statistics.quantiles(values, n=n, method="inclusive")[k - 1]
            assert percentile(counts, q) == pytest.approx(want), q


# -- calibration ------------------------------------------------------------


def test_loop_yardstick_leaves_the_garbage_collector_alone():
    gc.collect()
    gc.get_count()  # the first result tuple may be a fresh allocation
    before = gc.get_count()[0]
    calibrate._loop()
    calibrate._loop()
    assert gc.get_count()[0] == before


@pytest.mark.parametrize("kind", ["loop", "walk"])
def test_yardsticks_repeat_their_answer(kind):
    cal = calibrate.Calibrator(kind, passes=2, warmup=1)
    assert cal.run() == cal.expected
    assert len(cal.samples) == 1 and cal.samples[0] > 0
    assert gc.isenabled()  # paused only while the yardstick runs


def test_around_averages_the_measurements_on_both_sides(monkeypatch):
    cal = calibrate.Calibrator("loop", passes=1, warmup=0)
    cal.last = 100
    monkeypatch.setattr(cal, "measure", lambda: 300)
    assert cal.around() == 200
    assert cal.last == 300


def test_call_samples_the_yardstick_inside_a_long_call():
    cal = calibrate.Calibrator("loop", passes=1, warmup=0)
    before = len(cal.samples)

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, own_ns, cost = cal.call(busy, 0.35)
    assert result == "done"
    inside = len(cal.samples) - before - 1  # the last one follows the call
    assert inside >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the samples' time is taken out of the call's own time
    assert 0.35e9 - sum(cal.samples[before:before + inside]) <= own_ns + 1e6
    assert own_ns < 0.35e9 + 1e6
    assert cost > 0


def test_call_turns_a_raise_into_none():
    cal = calibrate.Calibrator("loop", passes=1, warmup=0)
    result, own_ns, _ = cal.call(lambda: 1 // 0)
    assert result is None and own_ns >= 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_unknown_yardstick_is_refused():
    with pytest.raises(ValueError):
        calibrate.Calibrator("sleep")


# -- tracer -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def synthetic(monkeypatch):
    """A package `synth` with layers a and b; b.leaf is imported into a."""
    clock = FakeClock()
    pkg = types.ModuleType("synth")
    a = types.ModuleType("synth.a")
    b = types.ModuleType("synth.b")

    def leaf(k):
        clock.now += k
        return k

    def outer():
        clock.now += 3
        a.leaf(5)  # looked up in a, where it was imported
        clock.now += 2
        b.leaf(1)
        return "done"

    b.leaf = leaf
    a.leaf = leaf
    a.outer = outer
    pkg.outer = outer
    for name, mod in (("synth", pkg), ("synth.a", a), ("synth.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return clock, pkg, a, b


def test_tracer_self_time_on_nested_calls(synthetic):
    clock, pkg, a, b = synthetic
    original = b.leaf
    tracer = Tracer("synth", {"a": ("outer", "missing"), "b": ("leaf",)},
                    clock=clock, span_cap=2)
    with tracer:
        assert a.leaf is not original and b.leaf is not original
        assert pkg.outer() == "done"
    assert b.leaf is original and a.leaf is original and pkg.outer is a.outer
    assert tracer.absent == ["a.missing"]
    assert tracer.stats["a.outer"] == [1, 5]
    assert tracer.stats["b.leaf"] == [2, 6]
    assert tracer.layer_self_s("a") == 5e-9
    # ids follow call order; only the first two spans are kept
    assert tracer.spans == [(1, 0, "b.leaf", 3, 8), (0, -1, "a.outer", 0, 11)]
    assert tracer.span_count == 3


def test_tracer_hooks_run_outside_spans(synthetic):
    clock, pkg, a, b = synthetic
    seen = []

    def enter(args, kwargs):
        clock.now += 100
        return args[0]

    def leave(token, args, kwargs, result):
        clock.now += 100
        seen.append((token, result))

    tracer = Tracer("synth", {"a": ("outer",), "b": ("leaf",)},
                    hooks={"b.leaf": (enter, leave)}, clock=clock)
    with tracer:
        pkg.outer()
    assert seen == [(5, 5), (1, 1)]
    assert tracer.stats["a.outer"][1] == 5
    assert tracer.stats["b.leaf"][1] == 6


def test_tracer_records_a_raising_call(synthetic):
    clock, pkg, a, b = synthetic

    def boom():
        clock.now += 4
        raise ValueError("bad")

    a.boom = boom
    tracer = Tracer("synth", {"a": ("boom",)}, clock=clock)
    with tracer, pytest.raises(ValueError):
        a.boom()
    assert tracer.stats["a.boom"] == [1, 4]
    assert len(tracer._stack) == 1


def test_tracer_runs_with_kernels_hidden(monkeypatch):
    import trigasket as tg
    from trigasket import metric

    monkeypatch.setitem(sys.modules, "trigasket.kernels", None)
    original = metric.distance
    tracer = Tracer()
    with tracer:
        assert tg.distance("lru", "url") == reference.distance("lru", "url")
        assert tg.horofunction.distance is not original
    assert metric.distance is original and tg.distance is original
    assert set(tracer.absent) == {"kernels.encode", "kernels.pair_distance",
                                  "kernels.corner_triple"}
    assert tracer.calls("metric.distance") == 1
    assert tracer.calls("kernels.encode") == 0


# -- contract ---------------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-l30",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _run(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("workload", ["query-l30", "query-l1000", "oracle-l11",
                                      "horo-default"])
def test_a_short_timed_run_prints_every_end_to_end_metric(workload):
    env, report, result = _run("--workload", workload, "--seed", "5",
                               "--seconds", "0.01", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert env["env"]["seed"] == 5 and report["report"]["fail_ratio"]["value"] == 0


def test_a_traced_run_prints_every_per_layer_metric():
    env, report, result = _run("--workload", "query-l1000", "--seed", "5",
                               "--seconds", "1", "--trace", "1")
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(PER_LAYER_UNITS)
    assert metrics["kernels.share"] > 0.5
    assert metrics["metric.distance.calls"] == env["env"]["distance_calls"]
    assert (ROOT / env["env"]["spans_file"]).is_file()
