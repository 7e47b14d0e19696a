"""Times the package's public functions from outside the package.

`install` wraps every public module-level function of `qutrit_teleport`
and rebinds every module-level name that refers to one, so a call made
through a re-export (``from .basis import entangled_state`` in `engine`)
is seen as well as one made through the home module.  Each call becomes a
span kept in memory; `report` returns per-function calls, total and self
time, plus the work counters, for the caller to write out at the end.

Self time is a span's duration minus the time covered by its direct child
spans.  Functions that are not wrapped (private helpers, methods) count
toward the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "qutrit_teleport"


class Tracer:
    def __init__(self):
        self.names = []      # span name table; spans refer to it by index
        self.spans = []      # (name index, start, end, parent span index or -1)
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.counters = {"exact.mul_calls": 0, "serialize.bytes_out": 0}
        self.gates_profiled = set()
        self._stack = []     # [span index, time covered by children]
        self._originals = {}

    def wrap(self, name, fn, after=None):
        """Return a wrapper around `fn` that records one span per call.

        `after(args, result)` runs once the span is closed, for counters.
        """
        name_index = len(self.names)
        self.names.append(name)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (name_index, start, end, parent)
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self):
        """Wrap the package's public functions; the package must be imported."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not _is_function(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                self._originals[name] = obj
                wrappers[id(obj)] = self.wrap(name, obj, self._after_hook(name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
        self._count_multiplies(sys.modules[PACKAGE + ".exact"].ExtScalar)
        self._misses_before = self._derive_gate_misses()

    def _after_hook(self, name):
        if name == "analysis.profile_gate":
            def record_gate(args, result):
                self.gates_profiled.add((result.channel, result.outcome))
            return record_gate
        if name == "serialize.dumps_canonical":
            def count_bytes(args, result):
                self.counters["serialize.bytes_out"] += len(result.encode("utf-8"))
            return count_bytes
        return None

    def _count_multiplies(self, cls):
        # Defined over the ExtScalar API as it stands: every call of
        # __mul__ or __rmul__, scalar-by-rational products included.
        multiply = cls.__mul__
        counters = self.counters

        def counted(a, b):
            counters["exact.mul_calls"] += 1
            return multiply(a, b)

        cls.__mul__ = counted
        cls.__rmul__ = counted

    def _derive_gate_misses(self):
        return self._originals["engine.derive_gate"].cache_info().misses

    def report(self):
        counters = dict(self.counters)
        counters["engine.derive_gate.cache_misses"] = (
            self._derive_gate_misses() - self._misses_before
        )
        counters["analysis.gates_profiled"] = len(self.gates_profiled)
        return {
            "functions": {
                name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for name, s in sorted(self.stats.items())
                if s[0]
            },
            "counters": counters,
        }

    def spans_obj(self):
        return {"names": self.names, "spans": [list(s) for s in self.spans]}


def _is_function(obj):
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
