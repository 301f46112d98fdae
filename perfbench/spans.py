"""Span tracing of the maxminconv layers from outside the package.

``install`` replaces each traced entry point by a wrapper in every
``maxminconv`` module namespace that holds it (so ``cli``'s imported
``radon_partition`` and ``separation``'s imported ``hull_member`` are
both traced), and ``uninstall`` puts the originals back.  Spans are kept
in memory as ``(name, start_ns, end_ns, parent)`` records; a layer's
self time is its span time minus the time of its child spans.  A call
into a span whose name is already the innermost open span is folded
into it, so recursion and calls within one module count once.
"""

from __future__ import annotations

import json
import sys
import time
import types
from typing import Any, Callable

# span name -> (module, attribute) entry points; a bare module name
# traces every public function defined in that module
SPANS: dict[str, list[tuple[str, str]]] = {
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
    "cli.load": [("cli", "_load")],
    "cli.verify": [("cli", "_maxt_member"), ("cli", "hull_member_maxt")],
    "instance.instance_from_dict": [("instance", "instance_from_dict")],
    "maxt.common_point": [("maxt", "_common_point")],
    "maxt.member_exact": [("maxt", "_member_exact")],
    "kernels.scan_common": [("_kernels", "scan_common")],
    "kernels.bf_hull_eval": [("_kernels", "bf_hull_eval")],
    "hull.hull_member": [("hull", "hull_member")],
    "hull._find_meeting_point": [("hull", "_find_meeting_point")],
    "maxt": [("maxt", "*")],
    "separation": [("separation", "*")],
    "koenig": [("koenig", "*")],
    "geometry": [("geometry", "*")],
    "semispaces": [("semispaces", "*")],
    "oracle": [("oracle", "*")],
    "render": [("render", "*")],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, func: Callable, count: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return func(*args, **kwargs)
            idx = len(spans)
            spans.append((name, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, spans[idx][3])
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _count_scan(self, args, flat) -> None:
        grid, d = args[2], args[3]
        self._bump("kernels.scan_common.candidates", flat + 1 if flat >= 0 else len(grid) ** d)

    def _count_common(self, args, point) -> None:
        if point is not None:
            self._bump("maxt.common_point.hits")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items()
                if n.startswith("maxminconv.")}
        namespaces = [sys.modules["maxminconv"], *mods.values()]
        counters = {"kernels.scan_common": self._count_scan,
                    "maxt.common_point": self._count_common}
        wrapped: dict[int, Callable] = {}
        for name, targets in SPANS.items():
            for modname, attr in targets:
                mod = mods[modname]
                if attr == "*":
                    funcs = [f for a, f in vars(mod).items()
                             if not a.startswith("_") and isinstance(f, types.FunctionType)
                             and f.__module__ == mod.__name__]
                else:
                    funcs = [getattr(mod, attr)]
                for f in funcs:
                    if id(f) not in wrapped:
                        wrapped[id(f)] = self._wrap(name, f, counters.get(name))
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if id(val) in wrapped:
                    self._saved.append((ns, attr, val))
                    setattr(ns, attr, wrapped[id(val)])
        cli = mods["cli"]
        self._saved.append((cli, "json", cli.json))
        cli.json = _JsonShim(self._wrap("cli.emit", json.dumps))

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._saved):
            setattr(ns, attr, val)
        self._saved.clear()

    # -- summary -----------------------------------------------------------

    def summary(self) -> tuple[dict[str, int], dict[str, float]]:
        """Call counts (plus the counters) and self times in ms per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = dict(self.counts)
        self_ms: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name + ".calls"] = calls.get(name + ".calls", 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + (end - start - child[i]) / 1e6
        return calls, self_ms

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)


class _JsonShim:
    """Stands in for the ``json`` module inside ``cli`` with a traced dumps."""

    def __init__(self, dumps: Callable) -> None:
        self.dumps = dumps

    def __getattr__(self, attr: str) -> Any:
        return getattr(json, attr)
