"""Measurement core: calibrated rounds and normalised times.

A *round* is at most ~100 ms of one workload's operations, run between
two calibrations (:mod:`perf.calib`).  Every wall-clock time taken
inside the round is multiplied by the round's speed factor, which
turns it into a time at reference machine speed.  The raw wall-clock
value is kept beside it, so the two can always be compared.

Set-up steps are measured the same way (one step = one round), several
times each, and summarised by the median of the repeats.
"""

from __future__ import annotations

import ctypes
import gc
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .calib import KERNELS, Calibrator


@dataclass
class RoundResult:
    """What one round of operations did, in raw wall-clock seconds.

    ``busy`` is the time the system under test was working: the sum of
    the operation times for a sequential workload, the submit-to-drain
    span for a pipelined one.  ``latencies`` holds one entry per
    operation; ``kinds`` optionally tags each entry (per-kind splits).
    """

    busy: float
    latencies: List[float]
    items: int
    failed: int = 0
    kinds: Optional[List[str]] = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)


@dataclass
class MeasuredRound:
    """A :class:`RoundResult` plus the speed factor that normalises it."""

    result: RoundResult
    factor: float
    traced: bool = False


@dataclass
class StepTiming:
    """One timed set-up step: raw and normalised seconds."""

    raw: float
    norm: float


@dataclass
class Meter:
    """Runs rounds and set-up steps between calibrations.

    ``weights`` is the kernel mix in force; the runner changes it from
    the workload's set-up mix to its rounds mix once set-up is over.
    """

    calibrator: Calibrator
    weights: Mapping[str, float]
    clock: Callable[[], float] = time.perf_counter
    rounds: List[MeasuredRound] = field(default_factory=list)
    _last: Optional[Dict[str, float]] = None

    def _before(self) -> Dict[str, float]:
        # The calibration that closed the previous round opens this one,
        # unless something untimed ran in between (``forget``).
        if self._last is None:
            self._last = self.calibrator.measure()
        return self._last

    def forget(self) -> None:
        """Drop the carried calibration after untimed work."""
        self._last = None

    def run_round(
        self, body: Callable[[], RoundResult], traced: bool = False
    ) -> MeasuredRound:
        before = self._before()
        result = body()
        after = self.calibrator.measure()
        self._last = after
        measured = MeasuredRound(
            result, self.calibrator.factor(before, after, self.weights), traced
        )
        self.rounds.append(measured)
        return measured

    def time_call(self, body: Callable[[], object]) -> Tuple[StepTiming, object]:
        """One calibrated call (a set-up step or a direct layer drive)."""
        before = self._before()
        started = self.clock()
        value = body()
        raw = self.clock() - started
        after = self.calibrator.measure()
        self._last = after
        factor = self.calibrator.factor(before, after, self.weights)
        return StepTiming(raw, raw * factor), value


def settle_gc() -> None:
    """Collect, then freeze what set-up built out of later collections."""
    gc.collect()
    gc.freeze()


def trim_heap() -> None:
    """Collect garbage and hand the freed heap back to the kernel, so
    that what a workload released stops counting as resident."""
    gc.collect()
    libc = ctypes.CDLL(None)
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim(0)


def pin_to_one_cpu() -> None:
    """Keep this process, and the workers it forks, on one CPU.

    The host's speed changes per CPU and by the second (a busy sibling
    thread slows interpreter-bound code 1.6x and leaves memory-bound
    code almost alone), so a calibration only speaks for the CPU it ran
    on.  Run anywhere, a two-process workload read 8 % apart from pass
    to pass with the calibration tracking neither process; on one CPU,
    4 %.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def latencies(rounds: Sequence[MeasuredRound], normalised: bool = True) -> List[float]:
    """Every operation's latency, at reference speed unless raw is asked."""
    return [
        latency * (measured.factor if normalised else 1.0)
        for measured in rounds
        for latency in measured.result.latencies
    ]


def throughput(rounds: Sequence[MeasuredRound], normalised: bool = True) -> float:
    """Items completed per second of (normalised) busy time."""
    items = sum(measured.result.items for measured in rounds)
    busy = sum(
        measured.result.busy * (measured.factor if normalised else 1.0)
        for measured in rounds
    )
    return items / busy if busy > 0 else 0.0


def setup_seconds(
    steps: Dict[str, List[StepTiming]], normalised: bool = True
) -> float:
    """Sum over steps of the median of that step's repeats."""
    return sum(
        statistics.median(
            (timing.norm if normalised else timing.raw) for timing in timings
        )
        for timings in steps.values()
    )


def _status_mib(pid: int, key: str) -> float:
    """One memory line of ``/proc/<pid>/status``, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise LookupError(f"no {key} in /proc/{pid}/status")


def resident_mib() -> float:
    """What this process has resident now."""
    return _status_mib(os.getpid(), "VmRSS")


def reset_peak_rss(pids: Iterable[int]) -> None:
    """Start the peak resident set of ``pids`` again from what they
    hold now, so that a later :func:`peak_rss_mib` reads the peak of
    the measured phase and not of input generation and set-up."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as refs:
                refs.write("5")
        except OSError:
            # A kernel built without the page monitor has no such file;
            # the peak then covers the whole life of the process.
            pass


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Summed peak resident sets of ``pids`` since the last reset."""
    return sum(_status_mib(pid, "VmHWM") for pid in pids)


def calibration_summary(calibrator: Calibrator) -> Dict[str, float]:
    """Median measured time per kernel over the run."""
    return {
        kernel: statistics.median(
            sample[kernel] for sample in calibrator.history
        )
        for kernel in KERNELS
    }
