"""Timing comparisons: closed-form distance against breadth-first search,
and the public call against the distance kernel on pre-encoded input."""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from . import kernels
from .gasket import DEFAULT_ORACLE_CAP, bfs_distance, build
from .metric import distance
from .word import LETTERS, canonicalize


@dataclass
class BenchResult:
    level: int
    pairs: int
    seed: int
    closed_seconds: float
    kernel_seconds: float
    bfs_seconds: float | None
    speedup: float | None
    all_match: bool | None


def sample_pairs(level: int, count: int, seed: int) -> list[tuple[str, str]]:
    """Deterministic canonical address pairs at the given level."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = canonicalize("".join(rng.choices(LETTERS, k=level)))
        y = canonicalize("".join(rng.choices(LETTERS, k=level)))
        out.append((x, y))
    return out


def run_bench(level: int, pairs: int, seed: int = 1,
              oracle_cap: int = DEFAULT_ORACLE_CAP) -> BenchResult:
    sample = sample_pairs(level, pairs, seed)

    t0 = perf_counter()
    closed = [distance(x, y) for x, y in sample]
    closed_s = perf_counter() - t0

    encoded = [(kernels.encode(x), kernels.encode(y)) for x, y in sample]
    t0 = perf_counter()
    for a, b in encoded:
        kernels.pair_distance(a, b)
    kernel_s = perf_counter() - t0

    bfs_s = None
    speedup = None
    match = None
    if level <= oracle_cap:
        graph = build("(l)", level, max_level=oracle_cap)
        t0 = perf_counter()
        brute = [bfs_distance(graph, x, y) for x, y in sample]
        bfs_s = perf_counter() - t0
        match = brute == closed
        speedup = bfs_s / max(closed_s, 1e-9)

    return BenchResult(level=level, pairs=pairs, seed=seed,
                       closed_seconds=closed_s, kernel_seconds=kernel_s,
                       bfs_seconds=bfs_s, speedup=speedup, all_match=match)
