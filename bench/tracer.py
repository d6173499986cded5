"""Outside-in tracing of the package's layers.

Every public function of every layer module is wrapped from outside, and
every name that refers to one is rebound to the wrapper: the module
globals that ``from .x import y`` created, and the tables built at import
time (``radial._ANALYTIC``, ``specfun._FAMILY_EVAL``,
``verify._ALL_SUITES``). A table left unpatched would charge the callee's
time to its caller's self time. No file of the package is changed.

Spans live in memory as ``[parent, name, start_ns, end_ns]`` lists, where
the span id is the list index, and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable

#: Tables of functions are rebound down to this many levels of nesting.
_MAX_DEPTH = 3


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.intervals = 0
        self._stack = [-1]
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}

    def install(self, package: str, layers: tuple[str, ...]) -> None:
        for layer in layers:
            module = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                namespace = vars(module)
                for name, value in list(namespace.items()):
                    if not name.startswith("__"):
                        namespace[name] = self._rebind(value, 0)

    def _rebind(self, value, depth: int):
        # The originals stay referenced in _wrappers, so their ids cannot be reused.
        hit = self._wrappers.get(id(value))
        if hit is not None:
            return hit[1]
        if depth >= _MAX_DEPTH:
            return value
        if type(value) is dict:
            for key, item in list(value.items()):
                value[key] = self._rebind(item, depth + 1)
        elif type(value) is tuple:
            swapped = tuple(self._rebind(item, depth + 1) for item in value)
            if any(a is not b for a, b in zip(swapped, value)):
                return swapped
        return value

    def _wrap(self, name: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        counts_intervals = name == "quadrature.integrate_adaptive"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [stack[-1], index, clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if counts_intervals:
                self.intervals += result.intervals
            return result

        return traced

    def summary(self) -> dict:
        """Calls and self time per layer, calls and inclusive time per
        function, span counts per caller>callee layer pair, and the summed
        quadrature intervals."""
        names = self.names
        layer_of = [n.split(".", 1)[0] for n in names]
        child_ns = [0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        functions: dict[str, dict] = {}
        layers: dict[str, dict] = {}
        cross: dict[str, int] = {}
        for sid, (parent, index, start, end) in enumerate(self.spans):
            duration = end - start
            own = duration - child_ns[sid]
            fn = functions.setdefault(names[index], {"calls": 0, "total_s": 0.0})
            fn["calls"] += 1
            fn["total_s"] += duration * 1e-9
            layer = layers.setdefault(layer_of[index], {"calls": 0, "self_s": 0.0})
            layer["calls"] += 1
            layer["self_s"] += own * 1e-9
            if parent >= 0:
                edge = f"{layer_of[self.spans[parent][1]]}>{layer_of[index]}"
                cross[edge] = cross.get(edge, 0) + 1
        return {"layers": layers, "functions": functions, "cross_calls": cross, "intervals": self.intervals}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
