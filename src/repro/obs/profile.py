"""Per-phase step accounting and tensor-op profiling for training.

The training loop decomposes into the phases the paper's cluster
schedule cares about — negative sampling, the ``f_T + f_R`` forward,
backward, optimizer step, and parameter-server push/pull — and the
:class:`Profiler` attributes both virtual-clock steps and tensor-op
dispatches to whichever phase is open.  Op counting reuses the same
interception point in :meth:`repro.nn.tensor.Tensor._make` that the
numeric sanitizer guards, installed via
:func:`repro.nn.tensor.set_op_hook`, so profiling sees exactly the ops
autograd sees and costs one ``is None`` branch when off.

Everything is exact and deterministic: no sampling, no wall clock
(phase durations come from the caller-supplied
:class:`~repro.reliability.retry.StepClock`), and
:func:`profile_report` renders sorted tables that are byte-identical
across same-seed runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..nn import tensor as _tensor

__all__ = ["PhaseTotals", "Profiler", "profile_report"]


class PhaseTotals:
    """Accumulated cost of one named phase across all its activations."""

    __slots__ = ("name", "calls", "steps", "ops", "units")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.steps = 0.0
        self.ops = 0
        self.units = 0

    def as_row(self) -> str:
        """One deterministic report line for this phase."""
        return (
            f"{self.name} | calls={self.calls} | steps={self.steps:g} | "
            f"ops={self.ops} | units={self.units}"
        )


class Profiler:
    """Attributes virtual-time steps and tensor ops to named phases.

    Use :meth:`phase` around each stage of the loop and
    :meth:`install` / :meth:`uninstall` (or the profiler itself as a
    context manager) to capture tensor-op dispatches.  Phases nest; an
    op or step interval is charged to the innermost open phase only,
    so totals never double-count.
    """

    def __init__(self, clock=None) -> None:
        if clock is None:
            # Lazy import: obs stays a leaf package (see trace.py).
            from ..reliability.retry import StepClock

            clock = StepClock()
        self.clock = clock
        self.phases: Dict[str, PhaseTotals] = {}
        self.op_counts: Dict[str, int] = {}
        self.total_ops = 0
        self._stack: List[Tuple[PhaseTotals, float]] = []
        self._previous_hook = None
        self._installed = False

    # ------------------------------------------------------------------
    # Tensor-op hook plumbing
    # ------------------------------------------------------------------
    def _on_op(self, op: str, data: np.ndarray) -> None:
        """Count one op dispatch (the installed tensor hook)."""
        self.total_ops += 1
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if self._stack:
            self._stack[-1][0].ops += 1

    def install(self) -> None:
        """Install the tensor-op hook, saving any previous hook."""
        if self._installed:
            return
        self._previous_hook = _tensor.get_op_hook()
        _tensor.set_op_hook(self._on_op)
        self._installed = True

    def uninstall(self) -> None:
        """Remove the hook and restore whatever was installed before."""
        if not self._installed:
            return
        _tensor.set_op_hook(self._previous_hook)
        self._previous_hook = None
        self._installed = False

    def __enter__(self) -> "Profiler":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Phase accounting
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str, units: int = 0) -> Iterator[PhaseTotals]:
        """Charge the enclosed block's steps and ops to ``name``.

        ``units`` is an optional work count (examples, triples, rows)
        for throughput lines in the report.  While a nested phase is
        open, the parent's step/op accumulation pauses.
        """
        totals = self.phases.get(name)
        if totals is None:
            totals = PhaseTotals(name)
            self.phases[name] = totals
        totals.calls += 1
        totals.units += units
        if self._stack:
            parent, started = self._stack[-1]
            parent.steps += self.clock.now() - started
        self._stack.append((totals, self.clock.now()))
        try:
            yield totals
        finally:
            _, started = self._stack.pop()
            totals.steps += self.clock.now() - started
            if self._stack:
                parent, _ = self._stack[-1]
                self._stack[-1] = (parent, self.clock.now())

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def top_ops(self, k: int = 10) -> List[Tuple[str, int]]:
        """The ``k`` most-dispatched ops, ties broken by name."""
        ranked = sorted(self.op_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: max(0, k)]

    def reset(self) -> None:
        """Clear all accumulated phases and op counts."""
        self.phases.clear()
        self.op_counts.clear()
        self.total_ops = 0
        self._stack.clear()


def profile_report(profiler: Profiler) -> str:
    """Render a deterministic two-part profile table.

    Part one lists phases in first-open order (the loop's own order);
    part two lists the top ten tensor ops by dispatch count.
    """
    lines = ["phase | calls | steps | tensor-ops | units"]
    for totals in profiler.phases.values():
        lines.append(totals.as_row())
    lines.append("")
    lines.append(f"top tensor ops (of {profiler.total_ops} dispatches)")
    lines.append("op | dispatches")
    for op, count in profiler.top_ops():
        lines.append(f"{op} | {count}")
    return "\n".join(lines)
