"""Per-layer metrics of a traced run: tracer hooks and the metric table."""

from __future__ import annotations

from collections import Counter

from .tracer import LAYERS, Tracer

# name -> unit; the order is the order of the report
PER_LAYER_UNITS = {
    "kernels.encode.calls": "count",
    "kernels.encode.self_s": "s",
    "kernels.encode.letters": "count",
    "kernels.pair_distance.calls": "count",
    "kernels.pair_distance.self_s": "s",
    "kernels.corner_triple.calls": "count",
    "kernels.corner_triple.self_s": "s",
    "metric.distance.calls": "count",
    "metric.distance.self_s": "s",
    "metric.corner_distances.calls": "count",
    "metric.corner_distances.self_s": "s",
    "metric.ball.calls": "count",
    "metric.ball.self_s": "s",
    "metric.ball.vertices": "count",
    "word.parse_address.calls": "count",
    "word.parse_address.self_s": "s",
    "word.canonicalize.calls": "count",
    "word.canonicalize.self_s": "s",
    "word.pad.calls": "count",
    "word.pad.self_s": "s",
    "word.letter_at.calls": "count",
    "word.letter_at.self_s": "s",
    "horofunction.classify.calls": "count",
    "horofunction.classify.self_s": "s",
    "horofunction.evaluate_table.calls": "count",
    "horofunction.evaluate_table.self_s": "s",
    "horofunction.horo_value.calls": "count",
    "horofunction.horo_value.self_s": "s",
    "horofunction.terms_evaluated": "count",
    "horofunction.pad_reuse_ratio": "ratio",
    "gasket.build.calls": "count",
    "gasket.build.self_s": "s",
    "gasket.build.vertices": "count",
    "gasket.build.edges": "count",
    "gasket.build.canonicalize_per_edge": "ratio",
    "gasket.bfs_distances_from.calls": "count",
    "gasket.bfs_distances_from.self_s": "s",
    "gasket.bfs.vertices_per_s": "1/s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


class TraceCounts:
    """Work counted at the traced boundaries, beyond calls and time."""

    def __init__(self):
        self.counts = Counter()
        self.pad_keys = set()

    def hooks(self, tracer: Tracer) -> dict:
        counts = self.counts
        pad_keys = self.pad_keys
        canon = tracer.stats["word.canonicalize"]

        def encode_leave(_, args, kwargs, result):
            counts["kernels.encode.letters"] += len(result)

        def ball_leave(_, args, kwargs, result):
            counts["metric.ball.vertices"] += len(result)

        def pad_leave(_, args, kwargs, result):
            pad_keys.add((args, tuple(sorted(kwargs.items()))))

        def table_leave(_, args, kwargs, result):
            counts["horofunction.terms_evaluated"] += result[1].evaluated

        def build_enter(args, kwargs):
            return canon[0]

        def build_leave(canon_before, args, kwargs, result):
            counts["gasket.build.vertices"] += len(result.adjacency)
            counts["gasket.build.edges"] += sum(map(len, result.adjacency.values())) // 2
            counts["gasket.build.canonicalize"] += canon[0] - canon_before

        def bfs_leave(_, args, kwargs, result):
            counts["gasket.bfs.vertices"] += len(result)

        return {
            "kernels.encode": (None, encode_leave),
            "metric.ball": (None, ball_leave),
            "word.pad": (None, pad_leave),
            "horofunction.evaluate_table": (None, table_leave),
            "gasket.build": (build_enter, build_leave),
            "gasket.bfs_distances_from": (None, bfs_leave),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, counters: TraceCounts,
                      traced_s: float, plain_s: float) -> dict[str, float]:
    """Every per-layer metric, by name; a ratio with a zero base reads 0."""
    c = counters.counts
    values = {
        "horofunction.pad_reuse_ratio": _ratio(
            len(counters.pad_keys), tracer.calls("word.pad")),
        "gasket.build.canonicalize_per_edge": _ratio(
            c["gasket.build.canonicalize"], c["gasket.build.edges"]),
        "gasket.bfs.vertices_per_s": _ratio(
            c["gasket.bfs.vertices"], tracer.self_s("gasket.bfs_distances_from")),
        "trace.overhead_ratio": _ratio(traced_s, plain_s),
    }
    for name in PER_LAYER_UNITS:
        key, _, field = name.rpartition(".")
        if name in values:
            continue
        if field == "calls":
            values[name] = tracer.calls(key)
        elif field == "self_s":
            values[name] = tracer.self_s(key)
        elif field == "share":
            values[name] = _ratio(tracer.layer_self_s(key), traced_s)
        else:
            values[name] = c[name]
    return {name: values[name] for name in PER_LAYER_UNITS}
