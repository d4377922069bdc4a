"""Request coalescing: many concurrent requests, few kernel calls.

The PKGM service interface is batched at its core —
``relation_existence_scores`` and ``nearest_tails_batch`` amortize the
per-call python and index overhead over the whole batch — but gateway
traffic arrives one request at a time.  The :class:`Coalescer` sits
between them: requests accumulate in per-``(shard, kind, k)`` buffers
and flush as one batch when the buffer reaches ``max_batch`` or when
the oldest buffered request has waited ``max_delay`` virtual seconds
on the shared :class:`~repro.reliability.retry.StepClock`.

Grouping by shard keeps worker affinity (one batch goes to one
worker); grouping by ``(kind, k)`` is what lets the worker run the
whole batch through a single kernel call.  Time is virtual, so the
delay policy is deterministic: the driver advances the clock between
arrivals and asks :meth:`due` for expired buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from .protocol import PoolRequest

#: Buffer key: one flushable group.
GroupKey = Tuple[int, str, int]

#: Histogram buckets for coalesced batch sizes.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class CoalescerConfig:
    """Batching policy knobs."""

    max_batch: int = 16
    max_delay: float = 0.002  # virtual seconds

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")


@dataclass(frozen=True)
class Batch:
    """One flushed group, ready to dispatch to a worker."""

    shard: int
    kind: str
    k: int
    requests: Tuple[PoolRequest, ...]


class Coalescer:
    """Deterministic max-batch / max-delay batcher on the virtual clock."""

    def __init__(
        self,
        clock,
        config: Optional[CoalescerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock = clock
        self.config = config if config is not None else CoalescerConfig()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._buffers: Dict[GroupKey, List[PoolRequest]] = {}
        self._opened_at: Dict[GroupKey, float] = {}
        self._requests_c = self.metrics.counter(
            "coalesce.requests", help="Requests offered to the coalescer"
        )
        self._batches_c = self.metrics.counter(
            "coalesce.batches", help="Batches flushed"
        )
        self._flush_c = {
            reason: self.metrics.counter(
                "coalesce.flushes",
                help="Batches flushed, by trigger",
                labels={"reason": reason},
            )
            for reason in ("full", "delay", "forced")
        }
        self._size_h = self.metrics.histogram(
            "coalesce.batch_size",
            help="Requests per flushed batch",
            buckets=BATCH_SIZE_BUCKETS,
        )

    def pending(self) -> int:
        """Requests buffered but not yet flushed."""
        return sum(len(buffer) for buffer in self._buffers.values())

    def offer(self, request: PoolRequest) -> List[Batch]:
        """Buffer one request; returns the batch it filled, if any."""
        key: GroupKey = (request.shard, request.kind, request.k)
        buffer = self._buffers.setdefault(key, [])
        self._opened_at.setdefault(key, self.clock.now())
        buffer.append(request)
        self._requests_c.inc()
        if len(buffer) >= self.config.max_batch:
            return [self._close(key, "full")]
        return []

    def due(self) -> List[Batch]:
        """Flush every buffer whose oldest request has waited long enough."""
        now = self.clock.now()
        expired = sorted(
            key
            for key, opened in self._opened_at.items()
            if now - opened >= self.config.max_delay
        )
        return [self._close(key, "delay") for key in expired]

    def flush_all(self) -> List[Batch]:
        """Flush everything (a blocking wait with nothing in flight)."""
        return [self._close(key, "forced") for key in sorted(self._buffers)]

    def _close(self, key: GroupKey, reason: str) -> Batch:
        requests = self._buffers.pop(key)
        self._opened_at.pop(key, None)
        self._batches_c.inc()
        self._flush_c[reason].inc()
        self._size_h.observe(float(len(requests)))
        shard, kind, k = key
        return Batch(shard=shard, kind=kind, k=k, requests=tuple(requests))
