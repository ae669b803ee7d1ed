"""In-memory span tracing of plsim's public functions, for the traced run.

A :class:`Tracer` wraps the public functions of each plsim module by
rebinding module attributes, and restores them when the run ends.  Every
plsim module that imported a wrapped function by name is rebound too, so
calls across modules are seen.  Nothing under ``src/`` changes.

Each span records its name, start, end, parent span and op id in compact
``array`` buffers (about 30 bytes per span), so a run of a million spans
stays small.  Self time is a span's duration minus the
time covered by its child spans; children of one parent run one after
another on one thread, so that is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

import plsim.grid

MODULES = (
    "grid", "models", "integrators", "picard", "spacetime", "checks",
    "diagnostics", "config", "storage", "acceptance", "cli",
)

# output_lock returns a context manager: a span around the call would time
# only the creation of the manager, not the locked block.
_SKIP = {"storage.output_lock"}

# cli has no __all__; its public entry point is main (the cmd_* handlers
# count as cli self time).
_CLI_PUBLIC = ("main",)

NESTING_SLACK_S = 1e-9


def public_functions(module) -> list[str]:
    """Names of plain functions the module exports and defines itself."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = _CLI_PUBLIC if module.__name__ == "plsim.cli" else ()
    return [
        name for name in names
        if inspect.isfunction(getattr(module, name, None))
        and getattr(module, name).__module__ == module.__name__
    ]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.name = array("H")
        # Field constructions made while the span was the innermost one
        self.fields = array("i")
        self.stack = [-1]
        self.op_id = -1
        # per-name results read at the boundary: sweeps, verdicts, bytes
        self.counters: dict[str, float] = {}
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, name: str, fn, on_result=None):
        name_id = self._name_id(name)
        start, end, parent, op, names, fields, stack = (
            self.start, self.end, self.parent, self.op, self.name, self.fields, self.stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            op.append(self.op_id)
            names.append(name_id)
            fields.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def install(self, hooks: dict | None = None) -> None:
        """Rebind every public plsim function to a traced wrapper."""
        hooks = hooks or {}
        loaded = [m for key, m in list(sys.modules.items()) if key.startswith("plsim") and m]
        for short in MODULES:
            module = sys.modules.get(f"plsim.{short}")
            if module is None:
                continue
            for attr in public_functions(module):
                span_name = f"{short}.{attr}"
                if span_name in _SKIP:
                    continue
                original = getattr(module, attr)
                traced = self.wrap(span_name, original, hooks.get(span_name))
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, key, original))
                            setattr(holder, key, traced)

        post_init = plsim.grid.Field.__post_init__
        fields, stack = self.fields, self.stack

        def counted_post_init(field_self):
            if stack[-1] >= 0:
                fields[stack[-1]] += 1
            post_init(field_self)

        self._restore.append((plsim.grid.Field, "__post_init__", post_init))
        plsim.grid.Field.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "fields": np.frombuffer(self.fields, dtype=np.int32).astype(np.int64),
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Analysis of recorded spans: self time, nesting, ancestry."""

    def __init__(self, tracer: Tracer) -> None:
        data = tracer.arrays()
        self.names = tracer.names
        self.start, self.end = data["start"], data["end"]
        self.parent, self.name, self.fields = data["parent"], data["name"], data["fields"]
        self.duration = self.end - self.start
        n = len(self.start)
        has_parent = self.parent >= 0
        self.child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=n
        )
        self.self_time = self.duration - self.child_time
        self.root = self._roots()

    def _roots(self) -> np.ndarray:
        root = np.arange(len(self.start))
        up = self.parent.copy()
        while np.any(up >= 0):
            moving = up >= 0
            root[moving] = up[moving]
            up[moving] = self.parent[up[moving]]
        return root

    def nesting_errors(self) -> list[str]:
        """Children that leave their parent's interval, and negative self times."""
        errors = []
        child = np.flatnonzero(self.parent >= 0)
        p = self.parent[child]
        outside = (self.start[child] < self.start[p] - NESTING_SLACK_S) | (
            self.end[child] > self.end[p] + NESTING_SLACK_S
        )
        if np.any(outside):
            errors.append(f"{int(np.sum(outside))} spans lie outside their parent")
        negative = self.self_time < -NESTING_SLACK_S
        if np.any(negative):
            errors.append(f"{int(np.sum(negative))} spans have negative self time")
        if np.any(self.duration < 0):
            errors.append("spans end before they start")
        return errors

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.start), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.sum(self.mask(name)))

    def total(self, name: str) -> float:
        return float(np.sum(self.duration[self.mask(name)]))

    def total_self(self, name: str) -> float:
        return float(np.sum(self.self_time[self.mask(name)]))

    def mean(self, name: str) -> float:
        calls = self.calls(name)
        return self.total(name) / calls if calls else 0.0

    def mean_self(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_self(name) / calls if calls else 0.0

    def nearest_ancestor(self, candidates: tuple[str, ...]) -> np.ndarray:
        """For each span, the nearest enclosing span (itself included) named
        one of ``candidates``, or -1."""
        wanted = np.zeros(len(self.start), dtype=bool)
        for name in candidates:
            wanted |= self.mask(name)
        found = np.full(len(self.start), -1)
        cur = np.arange(len(self.start))
        while np.any(cur >= 0):
            safe = np.maximum(cur, 0)
            hit = (cur >= 0) & wanted[safe]
            found[hit] = cur[hit]
            cur = np.where((cur >= 0) & ~hit, self.parent[safe], -1)
        return found
