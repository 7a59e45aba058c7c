"""Timing spans around the library's public functions, installed from outside.

Every public function of every ``randers_disc`` module, and every public
method of the classes those modules define, is replaced by a wrapper that
records a span (name, start, end, parent span, op id).  A function imported
into several modules (``length`` lives in ``functionals`` and is bound in
``isoperimetry``, ``cli`` and the package namespace) is replaced at every
module binding that holds it, so no call path escapes.  The span name is
``<defining module>.<function>``; methods of different classes share one name
(``curves.radius_batch`` covers ``Circle`` and ``PolarFourierCurve``).

Memory stays bounded: calls are folded into per-(name, parent name)
aggregates as they end, and only the first ``max_spans`` raw spans are kept.
Self time is span time minus the time of its direct child spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, max_spans: int = 20000):
        self.max_spans = max_spans
        self.stack: list[list] = []     # open spans: [span id, name, child time]
        self.agg: dict[tuple, list] = {}  # (name, parent name) -> [calls, total s, self s]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, on_call=None):
        tracer = self
        stack = self.stack
        agg = self.agg
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent_name = None
                parent_id = 0
                if parent is not None:
                    parent[2] += dur
                    parent_name = parent[1]
                    parent_id = parent[0]
                entry = agg.get((name, parent_name))
                if entry is None:
                    entry = agg[(name, parent_name)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]
                if len(spans) < tracer.max_spans:
                    spans.append((frame[0], name, t0, t1, parent_id, tracer.op_id))
                else:
                    tracer.dropped += 1
            if on_call is not None:
                on_call(tracer.counters, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, package, hooks: dict | None = None) -> None:
        """Wrap the package's public functions and methods; undo with uninstall."""
        hooks = hooks or {}
        modules = [m for m in vars(package).values()
                   if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")]
        replaced = {}  # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, hooks.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, layer, hooks)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, cls, layer: str, hooks: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                wrapped = self.wrap(name, obj, hooks.get(name))
            elif isinstance(obj, classmethod):
                wrapped = classmethod(self.wrap(name, obj.__func__, hooks.get(name)))
            else:
                continue
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def by_name(self) -> dict[str, list]:
        """name -> [calls, inclusive s, self s], summed over parents."""
        out: dict[str, list] = {}
        for (name, _), (calls, total, self_s) in self.agg.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        return out

    def calls_under(self, name: str, parent: str) -> int:
        entry = self.agg.get((name, parent))
        return entry[0] if entry else 0

    def write(self, path) -> None:
        doc = {
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.agg.items(), key=lambda kv: -kv[1][2])
            ],
            "counters": dict(self.counters),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "spans": [
                {"id": i, "name": n, "start": t0, "end": t1, "parent": p, "op": op}
                for i, n, t0, t1, p, op in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
