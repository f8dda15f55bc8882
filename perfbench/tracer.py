"""Outside-in call tracer for the spaneg package.

The tracer wraps public functions of the package from outside: it replaces
each target function with a recording wrapper in every loaded ``spaneg``
module that holds a reference to it, so calls made through names bound by
``from .x import y`` are seen as well.  Leaving the ``with`` block puts every
original back.  A target the package no longer defines is listed in
``missing`` and reads as never called.

Each call becomes a span (function, parent span, start, end).  Spans are kept
in memory; ``summary()`` turns them into per-function call counts, self time
and raised-exception counts, and ``write_spans()`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

PACKAGE = "spaneg"


def self_times(names, parents, starts, ends, n_functions):
    """Per-function self time: each span's duration minus its children's.

    Spans come from one thread and nest, so the children of a span are
    disjoint and the time they cover is the sum of their durations.
    """
    out = [0.0] * n_functions
    for fid, parent, start, end in zip(names, parents, starts, ends):
        duration = end - start
        out[fid] += duration
        if parent >= 0:
            out[names[parent]] -= duration
    return out


class Tracer:
    """Records a span for every call of the target functions.

    targets are ``"module.function"`` names relative to the package.
    observers maps a target to a callable that receives each value it
    returns.  clock is the time source; tests substitute a scripted one.
    """

    def __init__(self, targets, observers=None, clock=time.perf_counter):
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.clock = clock
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.raised = [0] * len(self.targets)
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop the recorded spans and counts; the wrappers stay installed."""
        self.names.clear()
        self.parents.clear()
        self.starts.clear()
        self.ends.clear()
        self.raised[:] = [0] * len(self.targets)
        del self._stack[1:]

    def _wrap(self, fid, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, raised, clock = self._stack, self.raised, self.clock
        observe = self.observers.get(self.targets[fid])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[fid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def __enter__(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.missing = []
        try:
            for fid, target in enumerate(self.targets):
                module_name, func_name = target.rsplit(".", 1)
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                original = getattr(module, func_name, None)
                if original is None:
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(fid, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        """Put every original function back where it was found."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def summary(self) -> dict:
        """{target: (calls, self_seconds, raised)} over the recorded spans."""
        n = len(self.targets)
        calls = [0] * n
        for fid in self.names:
            calls[fid] += 1
        selfs = self_times(self.names, self.parents, self.starts, self.ends, n)
        return {t: (calls[i], selfs[i], self.raised[i]) for i, t in enumerate(self.targets)}

    def write_spans(self, path) -> None:
        """Write the recorded spans as columns: function, parent span, start, end."""
        payload = {
            "functions": self.targets,
            "function": self.names,
            "parent": self.parents,
            "start": self.starts,
            "end": self.ends,
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
