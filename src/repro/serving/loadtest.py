"""Concurrent loadtest for the worker pool: real QPS, real percentiles.

Unlike the PR 3 gateway loadtest (a pure virtual-time simulation),
this one measures actual multi-process throughput.  Wall-clock access
is *injected*: the caller passes a ``timer`` callable (the CLI and
benchmarks pass ``time.perf_counter``), keeping this module inside the
R007 no-wall-clock boundary — with ``timer=None`` the report falls
back to virtual StepClock stamps, making the outcome accounting
(ok/degraded counts) deterministic; latency percentiles remain
measurements either way, since they depend on real arrival order.

The driver is open-loop with a bounded window: it submits the seeded
workload as fast as the pool accepts it, blocking only when more than
``window`` requests are outstanding — so worker processes genuinely
compute in parallel while the driver keeps feeding batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .chaos import _pick_request, ARRIVAL_TICK
from .supervisor import Supervisor


@dataclass(frozen=True)
class ServeLoadConfig:
    """Workload shape for one pool loadtest."""

    requests: int = 512
    window: int = 32
    seed: int = 0
    serve_prob: float = 0.55
    exist_prob: float = 0.2
    k: int = 10


@dataclass
class ServeLoadReport:
    """What one loadtest run measured."""

    requests: int
    ok: int
    degraded: int
    elapsed: float
    qps: float
    p50: float
    p99: float
    batches: int
    mean_batch: float

    def as_rows(self) -> List[str]:
        return [
            f"pool loadtest: {self.requests} requests | ok {self.ok} | "
            f"degraded {self.degraded}",
            f"batching: {self.batches} batches | "
            f"{self.mean_batch:.2f} requests/batch",
            f"timing: {self.elapsed:.3f}s | {self.qps:.0f} qps | "
            f"p50 {self.p50 * 1e3:.2f}ms | p99 {self.p99 * 1e3:.2f}ms",
        ]


def run_serve_loadtest(
    pool: Supervisor,
    item_ids: Sequence[int],
    config: Optional[ServeLoadConfig] = None,
    timer: Optional[Callable[[], float]] = None,
) -> ServeLoadReport:
    """Drive one started pool through the seeded workload."""
    config = config if config is not None else ServeLoadConfig()
    clock = pool.clock
    now = timer if timer is not None else clock.now
    rng = np.random.default_rng(config.seed)
    submitted_at: Dict[int, float] = {}
    latencies: List[float] = []
    ok = degraded = 0

    def collect(responses=None) -> None:
        nonlocal ok, degraded
        stamp = now()
        for response in pool.responses() if responses is None else responses:
            latencies.append(stamp - submitted_at.pop(response.request_id))
            if response.ok:
                ok += 1
            else:
                degraded += 1

    started = now()
    for _ in range(config.requests):
        clock.advance(ARRIVAL_TICK)
        kind, entity, relation = _pick_request(
            rng,
            item_ids,
            pool.num_entities,
            pool.num_relations,
            config.serve_prob,
            config.exist_prob,
            unknown_prob=0.0,  # still drawn, so the request order holds
        )
        request_id = pool.submit(kind, entity, relation=relation, k=config.k)
        submitted_at[request_id] = now()
        pool.pump()
        collect()
        while pool.outstanding() > config.window:
            pool.wait_any()
            collect()
    collect(pool.drain())
    elapsed = now() - started
    batches = int(pool.metrics.counter("coalesce.batches").value)
    percentiles = (
        np.percentile(latencies, [50, 99]) if latencies else np.zeros(2)
    )
    return ServeLoadReport(
        requests=config.requests,
        ok=ok,
        degraded=degraded,
        elapsed=elapsed,
        qps=config.requests / elapsed if elapsed > 0 else 0.0,
        p50=float(percentiles[0]),
        p99=float(percentiles[1]),
        batches=batches,
        mean_batch=config.requests / batches if batches else 0.0,
    )
