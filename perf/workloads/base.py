"""What every workload shares: seeding, scratch space, timed calls."""

from __future__ import annotations

import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..harness import Meter, MeasuredRound, RoundResult, StepTiming
from ..trace import SelfTime, Tracer

#: Scratch space for stores the workloads build.  Inside the checkout
#: (the benchmark may write nowhere else) and git-ignored.
WORK_ROOT = Path(__file__).resolve().parent.parent / ".work"

CATEGORIES = 24
DIM = 32
KEY_RELATIONS = 10
#: The catalog is the deployment being measured, so its shape is the
#: same in every run; ``--seed`` draws what is asked of it (model
#: tables, ids, vectors, shards).  A seed-dependent catalog size would
#: show up as run-to-run spread in throughput and peak RSS.
CATALOG_SEED = 2021
#: Warm-up rounds draw their inputs from round indices no measured
#: round reaches.
WARMUP_STREAM = 1_000_000


@dataclass
class TracedRun:
    """Everything a workload needs to turn a traced pass into metrics."""

    tracer: Tracer
    self_times: Mapping[str, SelfTime]  # normalised seconds
    counters: Mapping[str, float]  # deltas over the fixed counter rounds
    counter_items: int  # items completed in those rounds
    untraced: List[MeasuredRound]
    meter: Meter
    setup: Mapping[str, List[StepTiming]]
    #: Normalised duration of the call, when this is a :meth:`drive` view.
    drive_seconds: float = 0.0

    def seconds(self, name: str) -> float:
        total = self.self_times.get(name)
        return total.seconds if total is not None else 0.0

    def drive(self, body: Callable[[], object]) -> "TracedRun":
        """Drive a layer directly, with the wrappers installed, as one
        calibrated call; returns a view holding only what it recorded."""
        tracer = self.tracer
        first = len(tracer.spans)
        tracer.round = -1 - first  # a round id no measured round uses
        with tracer.installed():
            timing, _ = self.meter.time_call(body)
        factor = timing.norm / timing.raw if timing.raw else 1.0
        return TracedRun(
            tracer=tracer,
            self_times=tracer.self_times({tracer.round: factor}, start=first),
            counters={},
            counter_items=0,
            untraced=[],
            meter=self.meter,
            setup=self.setup,
            drive_seconds=timing.norm,
        )

    def per(self, name: str, denominator: str, scale: float = 1e6) -> float:
        """Self time of ``name`` per call / unit / operation."""
        total = self.self_times.get(name)
        count = getattr(total, denominator) if total is not None else 0
        return total.seconds / count * scale if count else 0.0


def median_norm(timings: List[StepTiming]) -> float:
    """Median normalised seconds of one set-up step's repeats."""
    return float(np.median([timing.norm for timing in timings]))


class Workload:
    """One closed-loop workload; subclasses fill in the five hooks."""

    name = ""
    #: Times the set-up chain runs in a pass (cheap chains repeat more).
    setup_repeats = 3
    #: Rounds run before timing starts (caches fill, lazy builds finish).
    warmup_rounds = 2
    #: Rounds, from the first measured one, over which exact counters
    #: are read in a traced pass.
    counter_rounds = 4
    #: A pass ends on a multiple of this many rounds, for workloads
    #: whose cost recurs on a cycle longer than one round.
    cycle_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.clock: Callable[[], float] = time.perf_counter
        self.workdir = WORK_ROOT / f"{self.name}-{uuid.uuid4().hex[:12]}"
        self._dir_count = 0
        #: Messages for the report (capped), and end-of-pass checks that
        #: failed; operations that failed are counted by their rounds.
        self.failures: List[str] = []
        self.pass_failures = 0

    # -- hooks ----------------------------------------------------------
    def generate(self) -> None:
        """Build the seeded inputs (not part of ``setup_s``)."""
        raise NotImplementedError

    def setup(self, meter: Meter) -> Dict[str, StepTiming]:
        """Run the set-up chain once, in fresh directories; the objects
        of the latest call are the ones the rounds use."""
        raise NotImplementedError

    def round(self, index: int, tracer: Optional[Tracer] = None) -> RoundResult:
        raise NotImplementedError

    def release(self) -> None:
        """Set-up is over: drop what only input generation and set-up
        needed (the catalog, an oracle's reference model), so that the
        measured phase's peak RSS is the system's and not the
        benchmark's, and hand the freed heap back (``trim_heap``).
        What a later check needs is rebuilt from the seed after the
        peak has been read."""

    def warm_up(self) -> None:
        """Untimed rounds: caches fill and lazy builds finish."""
        for index in range(self.warmup_rounds):
            self.round(WARMUP_STREAM + index)

    def child_pids(self) -> List[int]:
        """Processes of the system under test besides this one."""
        return []

    def finish(self) -> Dict[str, float]:
        """End-of-pass checks (append to ``failures``) and pass facts
        the parent compares across passes."""
        return {}

    def register_spans(self, tracer: Tracer) -> None:
        """Wrap this workload's layer callables on ``tracer``."""

    def counters(self) -> Dict[str, float]:
        """Current values of the exact counters the program exports."""
        return {}

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        """Release what set-up opened; scratch space goes regardless."""

    # -- helpers --------------------------------------------------------
    def rng(self, *stream: int) -> np.random.Generator:
        """A generator for one named stream of this seed."""
        return np.random.default_rng([self.seed, *stream])

    def fresh_dir(self) -> Path:
        self._dir_count += 1
        path = self.workdir / f"d{self._dir_count}"
        path.mkdir(parents=True)
        return path

    def remove_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds once every pass has left
        except OSError:
            pass

    def timed(
        self, tracer: Optional[Tracer], name: str, call: Callable[[], object]
    ) -> Tuple[float, object]:
        """One operation: wall time, and a root span when traced."""
        if tracer is None:
            started = self.clock()
            value = call()
            return self.clock() - started, value
        tracer.op += 1
        with tracer.span(name):
            started = self.clock()
            value = call()
            elapsed = self.clock() - started
        return elapsed, value

    def fail(self, message: str) -> None:
        """Record why an operation failed (its round counts it)."""
        if len(self.failures) < 20:
            self.failures.append(message)

    def fail_pass(self, message: str, count: int = 1) -> None:
        """Record a failed end-of-pass check (covering ``count``
        operations, when it is a deferred per-operation check)."""
        self.pass_failures += count
        self.fail(message)
