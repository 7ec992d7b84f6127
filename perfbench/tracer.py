"""Outside-in tracer for trigasket.

`Tracer.install` replaces each listed function at every module global
where callers look it up (``metric.distance`` and ``horofunction.distance``
are one function seen from two modules) with a wrapper that records a span
and per-function counters; `uninstall` puts the originals back.  Nothing
under ``src/`` changes.  A listed function or module that does not exist
is recorded in `absent` and its counters stay at zero.

Self time is a span's duration minus the time its direct children took,
where a child's time runs from entering its wrapper to leaving it, so the
wrappers' own cost is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from pathlib import Path
from time import perf_counter_ns

LAYERS = {
    "word": ("parse_address", "canonicalize", "pad", "letter_at"),
    "kernels": ("encode", "pair_distance", "corner_triple"),
    "metric": ("distance", "corner_distances", "ball"),
    "gasket": ("build", "bfs_distance", "bfs_distances_from"),
    "horofunction": ("horo_value", "evaluate_table", "classify"),
}

SPAN_CAP = 1 << 18  # spans kept for writing out; counters cover every call

CALLS, SELF_NS = range(2)


class Tracer:
    """Spans and counters for the functions in `layers` of `package`.

    `hooks` maps a "layer.function" key to ``(enter, leave)``; `enter(args,
    kwargs)` runs before the call and returns a token, `leave(token, args,
    kwargs, result)` runs after it returns.  Either may be None.  Hook time
    falls outside every span.
    """

    def __init__(self, package: str = "trigasket", layers=None, hooks=None,
                 clock=perf_counter_ns, span_cap: int = SPAN_CAP):
        self.package = package
        self.layers = LAYERS if layers is None else layers
        self.hooks = hooks or {}
        self.clock = clock
        self.span_cap = span_cap
        # "layer.function" -> [calls, self_ns]
        self.stats = {f"{layer}.{name}": [0, 0]
                      for layer, names in self.layers.items() for name in names}
        self.absent: list[str] = []
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start, end
        self._ids = itertools.count()
        self._stack = [[0, -1]]  # frames: [child_ns, span id]; a root sentinel
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> "Tracer":
        originals = {}
        for layer, names in self.layers.items():
            try:
                home = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                key = f"{layer}.{name}"
                fn = getattr(home, name, None)
                if callable(fn):
                    originals[key] = fn
                else:
                    self.absent.append(key)
        modules = [mod for modname, mod in list(sys.modules.items())
                   if mod is not None and (modname == self.package
                                           or modname.startswith(self.package + "."))]
        for key, fn in originals.items():
            wrapper = self._wrap(key, fn, *self.hooks.get(key, (None, None)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))
        return self

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, key, fn, enter, leave):
        stat = self.stats[key]
        stack = self._stack
        spans = self.spans
        cap = self.span_cap
        clock = self.clock
        ids = self._ids

        def traced(*args, **kwargs):
            t_in = clock()
            parent = stack[-1]
            try:
                token = enter(args, kwargs) if enter is not None else None
                frame = [0, next(ids)]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    stat[CALLS] += 1
                    stat[SELF_NS] += t1 - t0 - frame[0]
                    if frame[1] < cap:
                        spans.append((frame[1], parent[1], key, t0, t1))
                if leave is not None:
                    leave(token, args, kwargs, result)
                return result
            finally:
                parent[0] += clock() - t_in

        return functools.update_wrapper(traced, fn)

    # -- reading ----------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats[key][CALLS]

    def self_s(self, key: str) -> float:
        return self.stats[key][SELF_NS] / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s(f"{layer}.{name}") for name in self.layers[layer])

    @property
    def span_count(self) -> int:
        return sum(stat[CALLS] for stat in self.stats.values())

    def write_spans(self, path: Path) -> None:
        """Tab-separated spans: id, parent id (-1 at the top), name, start
        and end in nanoseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            out.writelines(f"{s}\t{p}\t{k}\t{a}\t{b}\n" for s, p, k, a, b in self.spans)
