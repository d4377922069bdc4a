"""Degraded-mode serving: the resilient facade over the PKGM server.

The paper's serving tier answers billions of service-vector requests;
a production facade in front of it must never turn one bad id or one
flaky backend into a caller-visible exception.  The contract of
:class:`ResilientPKGMServer`:

* ``serve`` **never raises** — unknown / out-of-range entity ids and
  backend failures return a *flagged* fallback payload
  (``ServiceVectors.degraded`` is ``True``) of all-zero vectors;
* transient backend errors are retried under a
  :class:`repro.reliability.retry.RetryPolicy`, and repeated failures
  trip a :class:`repro.reliability.retry.CircuitBreaker` so a dying
  backend stops being hammered;
* while the breaker is open, requests are answered from the
  :class:`repro.core.CachedPKGMServer` LRU — **stale** entries are
  valid model output and served as such (counted, not flagged);
* every degradation is counted in :class:`DegradationStats` for
  monitoring.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.cache import CachedPKGMServer
from ..core.service import BatchOverServe, ServiceVectors
from ..obs.metrics import MetricsRegistry, counter_view
from ..store.errors import QuarantinedRowError
from .retry import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    Retrier,
    RetryExhaustedError,
    RetryPolicy,
    RPCError,
    StepClock,
)


def fallback_payload(entity_id: int, k: int, dim: int) -> ServiceVectors:
    """A flagged, all-zeros payload for an unanswerable request.

    Shared by the resilient facade and the overload gateway so every
    degraded answer in the stack has the same shape and flag semantics.
    """
    return ServiceVectors(
        entity_id=int(entity_id),
        key_relations=np.full(k, -1, dtype=np.int64),
        triple_vectors=np.zeros((k, dim)),
        relation_vectors=np.zeros((k, dim)),
        degraded=True,
    )


class DegradationStats:
    """Structured error/degradation counters for the facade.

    The counters are registry-backed (``serving.*`` in a
    :class:`repro.obs.metrics.MetricsRegistry`) with the original
    attribute surface kept as read/write views, so both
    ``stats.requests += 1`` call sites and registry snapshots see the
    same numbers.
    """

    requests = counter_view("serving.requests", help="Requests offered")
    served_live = counter_view("serving.served_live", help="Live answers")
    served_stale = counter_view("serving.served_stale", help="Stale-cache answers")
    fallback_unknown = counter_view(
        "serving.fallback_unknown", help="Unknown-id fallbacks"
    )
    fallback_error = counter_view(
        "serving.fallback_error", help="Backend-error fallbacks"
    )
    fallback_quarantined = counter_view(
        "serving.fallback_quarantined", help="Quarantined-row degraded reads"
    )
    deadline_exceeded = counter_view(
        "serving.deadline_exceeded", help="Deadline-blown fallbacks"
    )
    breaker_short_circuits = counter_view(
        "serving.breaker_short_circuits", help="Circuit-open short circuits"
    )

    #: Every registry-backed counter attribute above, in declaration
    #: order — the single list :meth:`snapshot` and :meth:`reset`
    #: iterate, derived so a new counter cannot be missed by either.
    COUNTER_FIELDS = counter_view.fields(locals())

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.reset()  # creates + zeroes every instrument

    def snapshot(self) -> dict:
        """Counter name → value, a plain-int copy safe to diff or log."""
        return {name: int(getattr(self, name)) for name in self.COUNTER_FIELDS}

    def reset(self) -> None:
        """Zero every counter *through* its registry view.

        Assignment goes through the ``counter_view`` descriptor
        (``set_total`` on the registry instrument), so the registry
        stays attached: post-reset increments keep landing in the same
        ``serving.*`` instruments and the next registry snapshot shows
        the zeroed values — which is what lets two loadtest runs over
        one facade be diffed cleanly.
        """
        for name in self.COUNTER_FIELDS:
            setattr(self, name, 0)

    @property
    def degraded_rate(self) -> float:
        degraded = (
            self.fallback_unknown
            + self.fallback_error
            + self.fallback_quarantined
            + self.deadline_exceeded
        )
        return degraded / self.requests if self.requests else 0.0

    def as_row(self) -> str:
        return (
            f"requests {self.requests} | live {self.served_live} | "
            f"stale {self.served_stale} | unknown-fallbacks "
            f"{self.fallback_unknown} | error-fallbacks {self.fallback_error} | "
            f"quarantined-fallbacks {self.fallback_quarantined} | "
            f"deadline-exceeded {self.deadline_exceeded} | "
            f"short-circuits {self.breaker_short_circuits} | "
            f"degraded {self.degraded_rate:.2%}"
        )


class ResilientPKGMServer(BatchOverServe):
    """Never-raising serving facade with retry, breaker, and fallbacks.

    ``backend`` may be a plain ``PKGMServer``-surface object or an
    existing :class:`CachedPKGMServer`; a plain backend is wrapped in a
    fresh 1024-entry LRU (the stale-serving path needs one).
    """

    #: Resolution outcomes (exactly one per request), pre-registered so
    #: every facade's snapshot exposes the same
    #: ``serving.resolution{outcome=...}`` keys.
    RESOLUTIONS = (
        "live",
        "stale",
        "fallback-unknown",
        "fallback-error",
        "fallback-quarantined",
        "deadline",
    )

    def __init__(
        self,
        backend,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Optional[StepClock] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._resolution = {
            outcome: self.metrics.counter(
                "serving.resolution",
                help="How requests were resolved",
                labels={"outcome": outcome},
            )
            for outcome in self.RESOLUTIONS
        }
        self.clock = clock if clock is not None else StepClock()
        if isinstance(backend, CachedPKGMServer):
            self._cached = backend
        else:
            self._cached = CachedPKGMServer(
                backend, capacity=1024, registry=self.metrics
            )
        self._retrier = Retrier(retry, clock=self.clock)
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker(clock=self.clock)
        )
        if self.breaker.clock is not self.clock:
            # One clock drives backoff and recovery windows together.
            self.breaker.clock = self.clock
        self.stats = DegradationStats(registry=self.metrics)

    # ------------------------------------------------------------------
    # Surface passthrough
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self._cached.k

    @property
    def dim(self) -> int:
        return self._cached.dim

    @property
    def num_entities(self) -> int:
        return self._cached.num_entities

    @property
    def num_relations(self) -> int:
        return self._cached.num_relations

    def retry_stats(self):
        return self._retrier.stats

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self, entity_id: Union[int, np.integer], deadline=None
    ) -> ServiceVectors:
        """Service vectors for one item.  Never raises.

        Resolution order: live backend (with retries, through the
        breaker) → stale cache entry → flagged fallback payload.

        ``deadline`` is an optional
        :class:`repro.reliability.admission.Deadline` on this facade's
        clock; a backend slower than the remaining budget (including
        backoff pauses that would overrun it) yields a flagged fallback
        payload and increments ``stats.deadline_exceeded`` — exactly
        once, and never an exception.
        """
        entity_id = int(entity_id)
        self.stats.requests += 1
        self.clock.advance(1.0)  # one virtual second per request tick
        try:
            vectors = self.breaker.call(
                self._retrier.call_with_deadline,
                deadline,
                self._cached.serve,
                entity_id,
            )
        except CircuitOpenError:
            self.stats.breaker_short_circuits += 1
            return self._stale_or_fallback(entity_id, error=True)
        except DeadlineExceededError:
            self.stats.deadline_exceeded += 1
            self._resolution["deadline"].inc()
            return fallback_payload(entity_id, self.k, self.dim)
        except (RPCError, RetryExhaustedError):
            return self._stale_or_fallback(entity_id, error=True)
        except QuarantinedRowError:
            # Storage damage: the row's page failed its CRC and is
            # quarantined.  Not a caller bug (the id is valid) and not a
            # transient fault (retrying re-reads the same bad bytes), so
            # it bypasses retry/breaker and resolves stale → fallback.
            return self._stale_or_fallback(entity_id, error=True, quarantined=True)
        except (KeyError, IndexError):
            self.stats.fallback_unknown += 1
            self._resolution["fallback-unknown"].inc()
            return fallback_payload(entity_id, self.k, self.dim)
        self.stats.served_live += 1
        self._resolution["live"].inc()
        return vectors

    def _stale_or_fallback(
        self, entity_id: int, error: bool, quarantined: bool = False
    ) -> ServiceVectors:
        stale = self._cached.peek(entity_id)
        if stale is not None:
            self.stats.served_stale += 1
            self._resolution["stale"].inc()
            return stale
        if quarantined:
            self.stats.fallback_quarantined += 1
            self._resolution["fallback-quarantined"].inc()
        elif error:
            self.stats.fallback_error += 1
            self._resolution["fallback-error"].inc()
        else:
            self.stats.fallback_unknown += 1
            self._resolution["fallback-unknown"].inc()
        return fallback_payload(entity_id, self.k, self.dim)

    def relation_existence_score(self, entity_id: int, relation: int) -> float:
        """Existence score, or ``nan`` when it cannot be computed."""
        try:
            return self.breaker.call(
                self._retrier.call,
                self._cached.relation_existence_score,
                int(entity_id),
                int(relation),
            )
        except (
            CircuitOpenError,
            RPCError,
            RetryExhaustedError,
            QuarantinedRowError,
            KeyError,
            IndexError,
        ):
            return float("nan")
