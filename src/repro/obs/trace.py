"""Span tracing on the virtual step clock.

Spans answer "where did the time go in this epoch" the way the
metrics registry answers "how many": a :class:`Tracer` opens nested
spans around training phases, parameter-server RPCs, and serving
resolutions, stamping start/end from the same advance-only
:class:`~repro.reliability.retry.StepClock` that drives retries and
deadlines.  Wall clocks never appear (lint rule R007 covers this
package), so a traced run is as replayable as an untraced one: same
seed, same fault plan, byte-identical trace export.

Span ids come from a seeded counter, not ``uuid``/``random``; the
completed spans live in a fixed-capacity ring (:class:`SpanStore`)
and export either as Chrome ``trace_event`` JSON (load in
``chrome://tracing`` / Perfetto with steps standing in for
microseconds) or as an indented text tree for terminals and tests.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "SpanStore", "Tracer"]


class Span:
    """One timed operation: name, start/end step, attributes, events.

    Spans are created by :meth:`Tracer.span` and should be treated as
    read-only once ended.  ``status`` is ``"ok"`` unless the traced
    block raised (``"error"``) or the instrumented code overrode it.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "status",
        "attributes",
        "events",
    )

    def __init__(
        self,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attributes: Dict[str, object] = {}
        self.events: List[Tuple[float, str]] = []

    @property
    def duration(self) -> float:
        """Steps elapsed between start and end (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def add_event(self, name: str, at: Optional[float] = None) -> None:
        """Record a point-in-time event inside the span.

        ``at`` defaults to the span's current notion of "now" only when
        the caller supplies it; instrumented code normally passes the
        clock reading explicitly so the event lands on the step line.
        """
        self.events.append((self.start if at is None else at, name))


class SpanStore:
    """Fixed-capacity ring buffer of completed spans.

    Insertion order is completion order, which is deterministic under
    the step clock.  When full, the oldest completed span is dropped —
    bounded memory is part of the observability contract (a crashing
    trainer must not OOM through its own telemetry).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("span store capacity must be positive")
        self.capacity = capacity
        self._spans: List[Span] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    def add(self, span: Span) -> None:
        """Append a completed span, evicting the oldest when full."""
        if len(self._spans) >= self.capacity:
            del self._spans[0]
            self.dropped += 1
        self._spans.append(span)

    def spans(self) -> List[Span]:
        """Completed spans, oldest first."""
        return list(self._spans)

    def clear(self) -> None:
        """Drop every stored span and zero the drop counter."""
        self._spans.clear()
        self.dropped = 0


class Tracer:
    """Creates nested spans stamped by the virtual step clock.

    ``span()`` is a context manager; the parent is implicit (the
    innermost open span) unless given explicitly.  Span ids are
    ``"{seed:04x}-{counter:06x}"`` from a seeded counter, so two runs
    with the same seed emit identical ids in identical order.
    """

    def __init__(self, clock=None, seed: int = 0) -> None:
        if clock is None:
            # Imported here, not at module level: obs is a leaf package
            # (reliability's gateway imports obs.metrics, so a
            # top-level import back into reliability would be a cycle).
            from ..reliability.retry import StepClock

            clock = StepClock()
        self.clock = clock
        self.store = SpanStore()
        self.seed = seed
        self._next_id = 0
        self._stack: List[Span] = []

    def _new_id(self) -> str:
        self._next_id += 1
        return f"{self.seed & 0xFFFF:04x}-{self._next_id:06x}"

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attributes: object,
    ) -> Iterator[Span]:
        """Open a span around a block; closes (and stores) it on exit.

        The span's status becomes ``"error"`` if the block raises; the
        exception propagates.
        """
        if parent is None:
            parent = self.current
        span = Span(
            self._new_id(),
            parent.span_id if parent is not None else None,
            name,
            self.clock.now(),
        )
        span.attributes.update(attributes)
        self._stack.append(span)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.end = self.clock.now()
            self._stack.pop()
            self.store.add(span)

    def event(self, name: str) -> None:
        """Record an instant event on the innermost open span.

        Silently ignored with no open span, so instrumented code can
        emit events without caring whether tracing is active.
        """
        current = self.current
        if current is not None:
            current.add_event(name, at=self.clock.now())

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_chrome(self) -> str:
        """Chrome ``trace_event`` JSON for the completed spans.

        Steps map 1:1 onto the format's microsecond timestamps; spans
        become complete (``"ph": "X"``) events and span events become
        instants (``"ph": "i"``).  The output is canonical JSON
        (sorted keys, no whitespace) so identical runs export
        identical bytes.
        """
        events: List[Dict[str, object]] = []
        for span in self.store.spans():
            args: Dict[str, object] = {
                key: span.attributes[key] for key in sorted(span.attributes)
            }
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            if span.status != "ok":
                args["status"] = span.status
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "ts": span.start,
                    "dur": span.duration,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
            for at, label in span.events:
                events.append(
                    {
                        "ph": "i",
                        "name": label,
                        "ts": at,
                        "pid": 0,
                        "tid": 0,
                        "s": "t",
                        "args": {"span_id": span.span_id},
                    }
                )
        payload = {"displayTimeUnit": "ms", "traceEvents": events}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def render_tree(self) -> str:
        """Indented text tree of the completed spans.

        Children appear under their parent in completion order; spans
        whose parent was dropped from the ring render at top level.
        """
        spans = self.store.spans()
        by_parent: Dict[Optional[str], List[Span]] = {}
        ids = {span.span_id for span in spans}
        for span in spans:
            parent = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(parent, []).append(span)

        lines: List[str] = []

        def walk(parent_id: Optional[str], depth: int) -> None:
            for span in by_parent.get(parent_id, []):
                attrs = "".join(
                    f" {key}={span.attributes[key]}"
                    for key in sorted(span.attributes)
                )
                status = "" if span.status == "ok" else f" [{span.status}]"
                lines.append(
                    f"{'  ' * depth}{span.name}  "
                    f"steps={span.duration:g} "
                    f"start={span.start:g}{status}{attrs}"
                )
                for at, label in span.events:
                    lines.append(f"{'  ' * (depth + 1)}@{at:g} {label}")
                walk(span.span_id, depth + 1)

        walk(None, 0)
        return "\n".join(lines)
