"""Benchmark-side spans: self time per layer, from outside the program.

A :class:`Tracer` times calls into the program's public functions, either
around a call the benchmark makes itself (:meth:`Tracer.span`) or by
wrapping a public function or method in place (:meth:`Tracer.wrap`) so
that calls the program makes internally are timed too.  Each span's self
time is its duration minus the time of the spans opened inside it, so
the layers' self times add up to the traced wall time with nothing
counted twice.  No timer is added inside ``src/``.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, List


class Tracer:
    """Self time and call count per span name, kept in memory."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []

    @contextmanager
    def span(self, name: str):
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[name] += dur - frame[0]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][0] += dur

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` under span ``name``, for the
        rest of the process."""
        raw = inspect.getattr_static(owner, attr)
        kind = None
        if isinstance(raw, (classmethod, staticmethod)):
            kind, func = type(raw), raw.__func__
        else:
            func = raw

        @functools.wraps(func)
        def timed(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        setattr(owner, attr, kind(timed) if kind else timed)


class NullTracer:
    """The untraced stand-in: spans cost one ``nullcontext``."""

    def span(self, name: str):
        return nullcontext()
