"""Retry policy engine: backoff and budgets over a virtual clock.

The paper's PKGM trains against 50 parameter servers; at that scale
transient RPC failures are the steady state.  The PS pull/push channel,
where :class:`repro.reliability.faults.FaultyParameterServer` injects
:class:`RPCError` failures, is wrapped in the two mechanisms reproduced
here:

* :class:`RetryPolicy` / :class:`Retrier` — exponential backoff with
  seeded jitter, per-call attempt caps, and a global retry *budget*
  (so a dying backend cannot trap every caller in retry loops);
* a **virtual clock** (:class:`StepClock`) — delays are accounted, not
  slept, so fault-injection runs stay fast *and* deterministic.  The
  serving gateway and the worker pool run on the same clock.

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


class StepClock:
    """Deterministic monotonic clock: advances only when told to.

    The reliability stack never sleeps; backoff delays advance this
    clock instead, so fault-injection runs are reproducible and tests
    run at full speed.
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
    virtual_sleep: float = 0.0

    def as_row(self) -> str:
        return (
            f"retry calls {self.calls} | retries {self.retries} | "
            f"failures {self.failures} | budget-denials {self.budget_denials} | "
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
        self.stats.calls += 1
        retries = 0
        last: Optional[BaseException] = None
        for attempt in range(self.policy.max_attempts):
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
                self.clock.advance(pause)
                self.stats.virtual_sleep += pause
                self.stats.retries += 1
                retries += 1
        self.stats.failures += 1
        raise RetryExhaustedError(
            f"call failed after {retries} retr"
            f"{'y' if retries == 1 else 'ies'}: {last!r}"
        ) from last
