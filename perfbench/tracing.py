"""Spans around the calls into each ``hamext`` layer, recorded from outside.

Nothing in the package is edited: functions are replaced by timing
wrappers in every ``hamext`` module that binds them (``from .phase import
apply_W`` makes a second binding), and methods are replaced on their class
together with any alias (``__rmul__ = __mul__``).

Stage spans (a handful per job) are kept in memory with their name, start,
end, parent span and job id.  Layer spans can number in the millions, so
they are aggregated as they close: calls, inclusive time (outermost
occurrence only, so recursion is not counted twice) and self time, which is
the span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.stats: Dict[str, List[float]] = {}   # name -> [calls, incl, self]
        self.spans: List[tuple] = []               # (name, start, end, parent, job)
        self._stack: List[list] = []               # [name, child_time, span_index]
        self._depth: Dict[str, int] = {}

    def _stat(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn: Callable, keep_span: bool = False) -> Callable:
        stat = self._stat(name)
        stack = self._stack
        depth = self._depth
        depth.setdefault(name, 0)
        spans = self.spans
        job = self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            frame = [name, 0.0, None]
            if keep_span:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                depth[name] -= 1
                stat[0] += 1
                if depth[name] == 0:
                    stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if keep_span:
                    spans[frame[2]] = (name, t0, t1, parent, job)

        return traced

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def _hamext_modules():
    return [m for k, m in sorted(sys.modules.items())
            if (k == "hamext" or k.startswith("hamext.")) and m is not None]


def patch_function(tracer: Tracer, name: str, module, attr: str,
                   keep_span: bool = False, wrapper: Optional[Callable] = None) -> Callable:
    """Replace ``module.attr`` in every hamext module that binds the same object."""
    original = getattr(module, attr)
    traced = wrapper(original) if wrapper else tracer.wrap(name, original, keep_span)
    for mod in _hamext_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)
    return original


def patch_method(tracer: Tracer, name: str, cls, attr: str) -> None:
    """Replace a method and every alias of it in the class namespace."""
    original = cls.__dict__[attr]
    traced = tracer.wrap(name, original)
    for key, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, key, traced)
