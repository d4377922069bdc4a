"""Span recording from outside the program.

The benchmark process wraps public callables of the layers it drives
(methods of the objects it holds, functions of the modules it imports)
with recorders, for the traced rounds only.  Nothing inside ``src/`` is
edited and nothing is wrapped while end-to-end numbers are taken.

A span is (name, start, end, parent, operation id, round).  A layer's
*self time* is its span's duration minus the part its direct children
cover.  Spans live in memory and are written once, as Chrome
``trace_event`` JSON, when the pass ends.  Spans cannot cross a fork:
what a worker process does is measured by driving the same layer
directly in this process.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    round: int
    child_time: float = 0.0
    units: int = 0  # rows / vectors / queries handled, when tapped

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class SelfTime:
    """Aggregate over every span of one name."""

    seconds: float = 0.0  # normalised when factors were given
    calls: int = 0
    units: int = 0
    ops: int = 0  # distinct operations the name appeared in


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, Callable]] = []
        self.op = -1
        self.round = -1

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), 0.0, parent, self.op, self.round)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_time += span.duration

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        units: Optional[Callable[[tuple, dict, object], int]] = None,
        tap: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> None:
        """Register ``owner.attribute`` to be recorded as ``name``.

        ``units(args, kwargs, result)`` sizes the call (rows read,
        vectors inserted); ``tap`` sees the call after it returned, for
        replaying its inputs later.  Takes effect inside
        :meth:`installed` only.
        """
        original = getattr(owner, attribute)

        def recorded(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if units is not None:
                span.units = int(units(args, kwargs, result))
            if tap is not None:
                tap(args, kwargs, result)
            return result

        self._patches.append((owner, attribute, recorded))

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Swap every registered wrapper in; restore on exit."""
        saved = []
        for owner, attribute, recorded in self._patches:
            # A method looked up through its class is not in the
            # instance dict: restoring it means deleting the shadow.
            previous = getattr(owner, "__dict__", {}).get(attribute, _MISSING)
            saved.append((owner, attribute, previous))
            setattr(owner, attribute, recorded)
        try:
            yield
        finally:
            for owner, attribute, previous in reversed(saved):
                if previous is _MISSING:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, previous)

    # -- aggregation ----------------------------------------------------
    def self_times(
        self, factors: Optional[Mapping[int, float]] = None, start: int = 0
    ) -> Dict[str, SelfTime]:
        """Self time per span name, over the spans from index ``start``;
        ``factors`` maps round → speed factor."""
        totals: Dict[str, SelfTime] = {}
        seen: Dict[str, set] = {}
        for span in self.spans[start:]:
            factor = 1.0 if factors is None else factors.get(span.round, 1.0)
            total = totals.setdefault(span.name, SelfTime())
            total.seconds += span.self_time * factor
            total.calls += 1
            total.units += span.units
            seen.setdefault(span.name, set()).add((span.round, span.op))
        for name, operations in seen.items():
            totals[name].ops = len(operations)
        return totals

    # -- export ---------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` document of every span."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {
                    "op": span.op,
                    "round": span.round,
                    "parent": span.parent,
                    "self_us": span.self_time * 1e6,
                },
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")
