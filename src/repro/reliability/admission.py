"""Admission control: rate limiting, adaptive concurrency, and shedding.

The paper's serving tier answers service-vector requests for hundreds
of millions of items; at that scale *overload* is as routine as
failure.  A server without admission control converts a traffic spike
into unbounded queueing, blown tail latencies, and cascading timeouts.
This module supplies the standard production counter-measures, every
one of them deterministic on the virtual
:class:`repro.reliability.retry.StepClock`:

* :class:`TokenBucket` — a classic rate limiter: requests spend
  tokens that refill at ``rate`` per virtual second up to ``burst``;
* :class:`AIMDLimiter` — an adaptive concurrency limit (additive
  increase of :data:`INCREASE` per window of healthy completions,
  multiplicative decrease by :data:`DECREASE` on overload signals,
  never below :data:`MIN_LIMIT`), the TCP-congestion-control shape used
  by gradient/Netflix concurrency-limits style limiters;
* :class:`BoundedPriorityQueue` — the wait queue: bounded, ordered by
  (priority desc, arrival asc), with deterministic shedding on
  overflow (a higher-priority arrival evicts the youngest
  lowest-priority waiter; otherwise the arrival itself is shed);
* :class:`AdmissionController` — composes the three mechanisms behind
  one decision API and keeps :class:`AdmissionStats`.

Shedding here never *errors*: callers (the gateway) translate a shed
decision into the existing flagged ``degraded=True`` fallback payload,
so overload degrades answers instead of raising exceptions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Generic, List, Optional, Tuple, TypeVar

from ..obs.metrics import MetricsRegistry, counter_view
from .retry import StepClock

T = TypeVar("T")

#: The AIMD limit never drops below this many concurrent requests.
MIN_LIMIT = 1
#: Slots a full window of healthy completions adds to the AIMD limit.
INCREASE = 1.0
#: Factor an overload signal multiplies the AIMD limit by.
DECREASE = 0.5


class TokenBucket:
    """Deterministic token-bucket rate limiter on a virtual clock.

    ``rate`` tokens accrue per virtual second up to ``burst``; a
    request takes one token or is refused.  ``rate=None`` disables the
    limiter (always admits).
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: float = 32.0,
        clock: Optional[StepClock] = None,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None to disable)")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = float(burst)
        self.clock = clock if clock is not None else StepClock()
        self._tokens = float(burst)
        self._last_refill = self.clock.now()

    def _refill(self) -> None:
        now = self.clock.now()
        elapsed = now - self._last_refill
        if elapsed > 0 and self.rate is not None:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last_refill = now

    def available(self) -> float:
        """Tokens currently available (after refill)."""
        self._refill()
        return self._tokens if self.rate is not None else float("inf")

    def try_take(self) -> bool:
        """Spend one token; ``False`` means the request is rate-shed."""
        if self.rate is None:
            return True
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class AIMDLimiter:
    """Adaptive concurrency limit: additive increase, multiplicative decrease.

    Healthy completions grow the limit by ``INCREASE / limit`` (one
    extra slot per full window of successes, TCP-style); every overload
    signal — a deadline miss, a latency past the target — multiplies it
    by ``DECREASE``, with no per-window damping, so a burst of misses
    drives the limit down fast.  The limit always stays within
    ``[MIN_LIMIT, max_limit]``.
    """

    def __init__(self, initial: int = 8, max_limit: int = 64) -> None:
        if not MIN_LIMIT <= initial <= max_limit:
            raise ValueError(f"need {MIN_LIMIT} <= initial <= max_limit")
        self.max_limit = max_limit
        self._limit = float(initial)
        self.raises = 0
        self.backoffs = 0

    @property
    def limit(self) -> int:
        """The current integer concurrency limit."""
        return int(self._limit)

    def on_success(self) -> None:
        """A completion under the latency target: grow additively."""
        before = self.limit
        self._limit = min(
            float(self.max_limit), self._limit + INCREASE / self._limit
        )
        if self.limit > before:
            self.raises += 1

    def on_overload(self) -> None:
        """An overload signal: shrink multiplicatively."""
        self._limit = max(float(MIN_LIMIT), self._limit * DECREASE)
        self.backoffs += 1


@dataclass(order=True)
class _QueueEntry(Generic[T]):
    """Heap entry ordered by (priority desc, arrival seq asc)."""

    sort_key: Tuple[int, int]
    seq: int = field(compare=False)
    priority: int = field(compare=False)
    item: T = field(compare=False)


class BoundedPriorityQueue(Generic[T]):
    """A bounded wait queue ordered by priority, FIFO within a priority.

    ``push`` on a full queue sheds deterministically: if the arrival
    outranks the weakest waiter (lowest priority; youngest arrival
    breaks ties), that waiter is evicted and returned; otherwise the
    arrival itself is returned as rejected.  Tail-dropping equal
    priorities keeps older (already-queued) work first.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._heap: List[_QueueEntry[T]] = []
        self._dead: set = set()
        self._size = 0
        self._seq = 0

    def __len__(self) -> int:
        return self._size

    def push(self, item: T, priority: int = 0) -> Optional[T]:
        """Enqueue ``item``; returns the shed item on overflow (which
        may be ``item`` itself), else ``None``."""
        if self._size >= self.capacity:
            weakest = self._weakest()
            if weakest is None or priority <= weakest.priority:
                return item
            self._dead.add(weakest.seq)
            self._size -= 1
            evicted = weakest.item
        else:
            evicted = None
        entry = _QueueEntry(
            sort_key=(-priority, self._seq), seq=self._seq, priority=priority, item=item
        )
        self._seq += 1
        heapq.heappush(self._heap, entry)
        self._size += 1
        return evicted

    def pop(self) -> Optional[T]:
        """Dequeue the highest-priority, oldest waiter (``None`` if empty)."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.seq in self._dead:
                self._dead.discard(entry.seq)
                continue
            self._size -= 1
            return entry.item
        return None

    def _weakest(self) -> Optional[_QueueEntry[T]]:
        """The live entry shed first: lowest priority, youngest arrival."""
        weakest: Optional[_QueueEntry[T]] = None
        for entry in self._heap:
            if entry.seq in self._dead:
                continue
            if weakest is None or (entry.priority, -entry.seq) < (
                weakest.priority,
                -weakest.seq,
            ):
                weakest = entry
        return weakest


class AdmissionAction(Enum):
    """What the controller decided for one arriving request."""

    START = "start"
    QUEUE = "queue"
    SHED_RATE = "shed-rate-limited"
    SHED_QUEUE_FULL = "shed-queue-full"


@dataclass
class AdmissionDecision(Generic[T]):
    """Controller verdict: the action plus any evicted queue victim."""

    action: AdmissionAction
    evicted: Optional[T] = None


class AdmissionStats:
    """Accounting for one :class:`AdmissionController`.

    Counters are registry-backed (``admission.*``) with the original
    attribute names kept as read/write views — both the controller's
    ``stats.arrived += 1`` increments and registry snapshots observe
    the same instruments.
    """

    arrived = counter_view("admission.arrived", help="Requests offered")
    started = counter_view("admission.started", help="Requests started")
    queued = counter_view("admission.queued", help="Requests queued")
    shed_rate_limited = counter_view(
        "admission.shed_rate_limited", help="Token-bucket sheds"
    )
    shed_queue_full = counter_view(
        "admission.shed_queue_full", help="Queue-overflow sheds"
    )
    evicted = counter_view("admission.evicted", help="Queue evictions")
    completed_ok = counter_view(
        "admission.completed_ok", help="Healthy completions"
    )
    completed_overload = counter_view(
        "admission.completed_overload", help="Overloaded completions"
    )

    def __init__(
        self,
        arrived: int = 0,
        started: int = 0,
        queued: int = 0,
        shed_rate_limited: int = 0,
        shed_queue_full: int = 0,
        evicted: int = 0,
        completed_ok: int = 0,
        completed_overload: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.arrived = arrived
        self.started = started
        self.queued = queued
        self.shed_rate_limited = shed_rate_limited
        self.shed_queue_full = shed_queue_full
        self.evicted = evicted
        self.completed_ok = completed_ok
        self.completed_overload = completed_overload

    @property
    def shed(self) -> int:
        """Total requests refused by admission (rate + queue + evictions)."""
        return self.shed_rate_limited + self.shed_queue_full + self.evicted

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrived if self.arrived else 0.0

    def as_row(self) -> str:
        return (
            f"admission: arrived {self.arrived} | started {self.started} | "
            f"queued {self.queued} | shed-rate {self.shed_rate_limited} | "
            f"shed-queue {self.shed_queue_full} | evicted {self.evicted} | "
            f"shed {self.shed_rate:.2%}"
        )


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for one :class:`AdmissionController`."""

    rate: Optional[float] = None
    burst: float = 32.0
    initial_limit: int = 8
    max_limit: int = 64
    queue_capacity: int = 64

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


class AdmissionController(Generic[T]):
    """Token bucket + AIMD concurrency limit + bounded priority queue.

    The controller tracks in-flight occupancy itself: ``offer`` admits,
    queues, or sheds an arrival; ``release`` returns a slot (feeding
    the AIMD limiter a health signal); ``next_ready`` hands back the
    next queued item once a slot is free.  It knows nothing about what
    a request *is* — the gateway owns payloads and fallback semantics.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        clock: Optional[StepClock] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self.clock = clock if clock is not None else StepClock()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.bucket = TokenBucket(
            rate=self.config.rate, burst=self.config.burst, clock=self.clock
        )
        self.limiter = AIMDLimiter(
            initial=self.config.initial_limit, max_limit=self.config.max_limit
        )
        self.queue: BoundedPriorityQueue[T] = BoundedPriorityQueue(
            self.config.queue_capacity
        )
        self.inflight = 0
        self.stats = AdmissionStats(registry=self.metrics)
        self._inflight_g = self.metrics.gauge(
            "admission.inflight", help="Occupied concurrency slots"
        )
        self._limit_g = self.metrics.gauge(
            "admission.limit", help="Current AIMD concurrency limit"
        )
        self._limit_g.set(self.limiter.limit)

    def has_slot(self) -> bool:
        """Whether a request could start right now (slot free, no queue)."""
        return self.inflight < self.limiter.limit and len(self.queue) == 0

    def offer(self, item: T, priority: int = 0) -> AdmissionDecision[T]:
        """Decide the fate of one arrival; occupies a slot on START."""
        self.stats.arrived += 1
        if not self.bucket.try_take():
            self.stats.shed_rate_limited += 1
            return AdmissionDecision(AdmissionAction.SHED_RATE)
        if self.has_slot():
            self.inflight += 1
            self._inflight_g.set(self.inflight)
            self.stats.started += 1
            return AdmissionDecision(AdmissionAction.START)
        shed = self.queue.push(item, priority)
        if shed is item:
            self.stats.shed_queue_full += 1
            return AdmissionDecision(AdmissionAction.SHED_QUEUE_FULL)
        self.stats.queued += 1
        if shed is not None:
            self.stats.evicted += 1
            return AdmissionDecision(AdmissionAction.QUEUE, evicted=shed)
        return AdmissionDecision(AdmissionAction.QUEUE)

    def release(self, overloaded: bool = False) -> None:
        """Return a slot; ``overloaded`` feeds the AIMD limiter."""
        if self.inflight <= 0:
            raise RuntimeError("release() without a matching started request")
        self.inflight -= 1
        self._inflight_g.set(self.inflight)
        if overloaded:
            self.stats.completed_overload += 1
            self.limiter.on_overload()
        else:
            self.stats.completed_ok += 1
            self.limiter.on_success()
        self._limit_g.set(self.limiter.limit)

    def next_ready(self) -> Optional[T]:
        """Pop the next queued item into a free slot, if any."""
        if self.inflight >= self.limiter.limit:
            return None
        item = self.queue.pop()
        if item is not None:
            self.inflight += 1
            self._inflight_g.set(self.inflight)
            self.stats.started += 1
        return item
