"""Retry policy engine: capped backoff over a virtual clock.

The paper's PKGM trains against 50 parameter servers; at that scale
transient RPC failures are the steady state.  The PS pull/push channel,
where :class:`repro.reliability.faults.FaultyParameterServer` injects
:class:`RPCError` failures, is wrapped in the two mechanisms reproduced
here:

* :class:`RetryPolicy` / :class:`Retrier` — exponential backoff with
  seeded jitter and a per-call cap of :data:`MAX_ATTEMPTS` attempts;
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
    """Raised when a call fails on each of its :data:`MAX_ATTEMPTS` attempts."""


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


#: Attempts per call, the first one included.
MAX_ATTEMPTS = 4
#: Backoff before retry ``a`` (0-based) is
#: ``min(MAX_DELAY, BASE_DELAY * MULTIPLIER**a)`` virtual seconds, scaled
#: down by up to ``JITTER`` (seeded): the standard "decorrelated-ish"
#: jitter that prevents retry synchronization.
BASE_DELAY = 0.05
MAX_DELAY = 2.0
MULTIPLIER = 2.0
JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """The seed of a :class:`Retrier`'s jitter stream."""

    seed: int = 0


@dataclass
class RetryStats:
    """Accounting for one :class:`Retrier`."""

    calls: int = 0
    retries: int = 0
    failures: int = 0
    virtual_sleep: float = 0.0

    def as_row(self) -> str:
        return (
            f"retry calls {self.calls} | retries {self.retries} | "
            f"failures {self.failures} | backoff {self.virtual_sleep:.2f}s"
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

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jitter applied."""
        raw = min(MAX_DELAY, BASE_DELAY * MULTIPLIER**attempt)
        return raw * (1.0 - JITTER * float(self._rng.random()))

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` with retries; returns its value or raises."""
        self.stats.calls += 1
        retries = 0
        last: Optional[BaseException] = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                return fn(*args, **kwargs)
            except RPCError as exc:
                last = exc
                if attempt + 1 >= MAX_ATTEMPTS:
                    break
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
