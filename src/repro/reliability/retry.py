"""Retry policy engine: backoff, budgets, and a circuit breaker.

The paper's PKGM serves billions of requests from 50 parameter servers;
at that scale transient RPC failures are the steady state, and every
production PS/serving stack wraps its channels in exactly three
mechanisms reproduced here:

* :class:`RetryPolicy` / :class:`Retrier` — exponential backoff with
  seeded jitter, per-call attempt caps, and a global retry *budget*
  (so a dying backend cannot trap every caller in retry loops);
* :class:`CircuitBreaker` — closed/open/half-open state machine that
  stops hammering a failing dependency and probes for recovery;
* a **virtual clock** (:class:`StepClock`) — delays are accounted, not
  slept, so fault-injection runs stay fast *and* deterministic.

Everything is seeded: two runs with the same policy observe the same
jitter sequence, which the chaos tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class RPCError(RuntimeError):
    """A transient remote-call failure (retryable by contract)."""


class RetryExhaustedError(RuntimeError):
    """Raised when a call fails after exhausting attempts or budget."""


class CircuitOpenError(RuntimeError):
    """Raised when the breaker short-circuits a call without trying it."""


class DeadlineExceededError(RuntimeError):
    """Raised when a call's :class:`~repro.reliability.admission.Deadline`
    budget runs out before (or between) attempts."""


class StepClock:
    """Deterministic monotonic clock: advances only when told to.

    The reliability stack never sleeps; backoff delays advance this
    clock instead, so breaker recovery windows are reproducible and
    tests run at full speed.
    """

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff knobs (delays are virtual seconds).

    ``delay(attempt) = min(max_delay, base_delay * multiplier**attempt)``
    scaled down by up to ``jitter`` (seeded), the standard
    "decorrelated-ish" jitter that prevents retry synchronization.
    ``budget`` bounds *total* retries across all calls through one
    :class:`Retrier`; ``None`` means unbounded.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    budget: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0 when set")


@dataclass
class RetryStats:
    """Accounting for one :class:`Retrier`."""

    calls: int = 0
    retries: int = 0
    failures: int = 0
    budget_denials: int = 0
    deadline_denials: int = 0
    virtual_sleep: float = 0.0

    def as_row(self) -> str:
        return (
            f"retry calls {self.calls} | retries {self.retries} | "
            f"failures {self.failures} | budget-denials {self.budget_denials} | "
            f"deadline-denials {self.deadline_denials} | "
            f"backoff {self.virtual_sleep:.2f}s"
        )


class Retrier:
    """Executes callables under a :class:`RetryPolicy`.

    Only :class:`RPCError` is retried; anything else propagates
    immediately (a ``KeyError`` is a caller bug, not a flaky network).
    The final failure raises :class:`RetryExhaustedError` chained to the
    last cause.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        clock: Optional[StepClock] = None,
    ) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else StepClock()
        self.stats = RetryStats()
        self._rng = np.random.default_rng(self.policy.seed)
        self._budget_left = self.policy.budget

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jitter applied."""
        raw = min(
            self.policy.max_delay,
            self.policy.base_delay * self.policy.multiplier**attempt,
        )
        if self.policy.jitter:
            raw *= 1.0 - self.policy.jitter * float(self._rng.random())
        return raw

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` with retries; returns its value or raises."""
        return self.call_with_deadline(None, fn, *args, **kwargs)

    def call_with_deadline(self, deadline, fn: Callable, *args, **kwargs):
        """Run ``fn`` with retries under an optional deadline budget.

        ``deadline`` is a :class:`repro.reliability.admission.Deadline`
        (or anything with ``expired()`` / ``remaining()``).  An expired
        budget — on entry, or one the next backoff pause would blow —
        raises :class:`DeadlineExceededError` instead of burning more
        attempts: past the deadline the answer is useless, so retrying
        only adds load to an already-struggling backend.
        """
        self.stats.calls += 1
        last: Optional[BaseException] = None
        for attempt in range(self.policy.max_attempts):
            if deadline is not None and deadline.expired():
                self.stats.deadline_denials += 1
                raise DeadlineExceededError(
                    "deadline expired before attempt "
                    f"{attempt + 1}/{self.policy.max_attempts}"
                ) from last
            try:
                return fn(*args, **kwargs)
            except RPCError as exc:
                last = exc
                if attempt + 1 >= self.policy.max_attempts:
                    break
                if self._budget_left is not None:
                    if self._budget_left <= 0:
                        self.stats.budget_denials += 1
                        break
                    self._budget_left -= 1
                pause = self.delay(attempt)
                if deadline is not None and pause >= deadline.remaining():
                    self.stats.deadline_denials += 1
                    raise DeadlineExceededError(
                        f"backoff of {pause:.3f}s would overrun the "
                        f"remaining {deadline.remaining():.3f}s budget"
                    ) from last
                self.clock.advance(pause)
                self.stats.virtual_sleep += pause
                self.stats.retries += 1
        self.stats.failures += 1
        raise RetryExhaustedError(
            f"call failed after {self.stats.retries} retr"
            f"{'y' if self.stats.retries == 1 else 'ies'}: {last!r}"
        ) from last


class CircuitBreaker:
    """Closed → open → half-open failure isolation.

    *Closed*: calls pass through; ``failure_threshold`` consecutive
    failures trip the breaker.  *Open*: calls raise
    :class:`CircuitOpenError` without touching the backend until
    ``recovery_time`` virtual seconds elapse.  *Half-open*: up to
    ``half_open_probes`` trial calls are admitted; one success closes
    the breaker, one failure re-opens it.

    Only :class:`RPCError` and :class:`RetryExhaustedError` count as
    failures — domain errors (unknown id → ``KeyError``) pass through
    without moving the state machine.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        half_open_probes: int = 1,
        clock: Optional[StepClock] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time <= 0:
            raise ValueError("recovery_time must be positive")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        self.clock = clock if clock is not None else StepClock()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.times_opened = 0
        self.short_circuits = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0

    def _trip(self) -> None:
        self.state = self.OPEN
        self.times_opened += 1
        self._opened_at = self.clock.now()
        self._probes_in_flight = 0

    def allow(self) -> bool:
        """Whether a call would currently be admitted (no side effects
        beyond the open→half-open transition on timeout)."""
        if self.state == self.OPEN:
            if self.clock.now() - self._opened_at >= self.recovery_time:
                self.state = self.HALF_OPEN
                self._probes_in_flight = 0
            else:
                return False
        if self.state == self.HALF_OPEN:
            return self._probes_in_flight < self.half_open_probes
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED
            self._probes_in_flight = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            self._trip()
        elif (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` through the breaker."""
        if not self.allow():
            self.short_circuits += 1
            raise CircuitOpenError(
                f"circuit open for another "
                f"{self.recovery_time - (self.clock.now() - self._opened_at):.2f}s"
            )
        if self.state == self.HALF_OPEN:
            self._probes_in_flight += 1
        try:
            # Domain errors (KeyError, ...) propagate without moving the
            # state machine — only RPC failures indict the backend.
            result = fn(*args, **kwargs)
        except (RPCError, RetryExhaustedError):
            self.record_failure()
            raise
        self.record_success()
        return result
