"""The one seeded pool drive, and the real-QPS loadtest built on it.

:func:`drive` is the submit loop of every seeded drill over a
:class:`~repro.serving.supervisor.Supervisor` — the kill drill, this
loadtest, :func:`repro.obs.run_pool_workload` and the pool phase of
:func:`repro.scenarios.run_scenarios_workload`.  Each request is
submit, advance the virtual clock one :data:`ARRIVAL_TICK`, pump; with
a ``window`` the drive then blocks until at most ``window`` requests
are outstanding, so workers compute in parallel while it keeps feeding
batches.  Callers keep only their seeded request generators and what
they do with the answers; :func:`transcript_line` is the one line a
byte-diffed transcript prints per request.

Wall-clock access is *injected*: the caller passes a ``timer``
callable (the CLI and benchmarks pass ``time.perf_counter``), keeping
this module inside the R007 no-wall-clock boundary — with
``timer=None`` the latencies are virtual StepClock stamps, making the
outcome accounting (ok/degraded counts) deterministic; latency
percentiles remain measurements either way, since they depend on real
arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .protocol import PoolResponse
from .supervisor import Supervisor

#: Virtual seconds between two seeded arrivals.
ARRIVAL_TICK = 0.001

#: One seeded request: ``(kind, entity, relation, k)``.
Request = Tuple[str, int, int, int]


def mixed_requests(
    pool: Supervisor, item_ids: Sequence[int], count: int, seed: int, k: int,
    serve_prob: float, exist_prob: float, unknown_prob: float = 0.0,
) -> Iterable[Request]:
    """``count`` seeded serve / exist / retrieve requests; the remainder
    after ``serve_prob`` and ``exist_prob`` is retrieve.  The unknown-id
    draw is made even at ``unknown_prob=0``, so the request order holds;
    an unknown id lies past the pool's entities.  Drawn lazily, so a
    timed drive pays for each draw inside its elapsed time."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        draw = float(rng.random())
        if draw < serve_prob:
            kind = "serve"
        elif draw < serve_prob + exist_prob:
            kind = "exist"
        else:
            kind = "retrieve"
        if float(rng.random()) < unknown_prob:
            entity = pool.num_entities + int(rng.integers(0, 1000))
        elif kind == "serve":
            entity = int(item_ids[int(rng.integers(0, len(item_ids)))])
        else:
            entity = int(rng.integers(0, pool.num_entities))
        relation = int(rng.integers(0, pool.num_relations))
        yield kind, entity, relation, k


def drive(
    pool: Supervisor,
    requests: Iterable[Request],
    window: Optional[int] = None,
    kills: Optional[Dict[int, int]] = None,
    timer: Optional[Callable[[], float]] = None,
) -> Tuple[List[PoolResponse], List[float], float]:
    """Drive a started pool through ``requests``; ``kills`` maps a
    request index to the worker slot SIGKILLed just before its submit.

    The clock advances between a submit and its pump, so a coalescer
    group is one tick old when first pumped: a ``max_delay`` of
    ``n + 0.5`` ticks flushes a group ``n`` arrivals after the one that
    opened it, clear of rounding in the summed ticks.

    Returns every response handed out, without its payload, in
    request-id order, the latency of each (submit to collection, on
    ``timer`` or the pool's virtual clock) and the elapsed time of the
    whole drive.  A repeat hand-out of an id, or one for an id the
    drive never submitted, is returned too (latency 0), so the caller's
    exactly-once check sees it.
    """
    clock = pool.clock
    now = timer if timer is not None else clock.now
    kills = kills if kills is not None else {}
    submitted_at: Dict[int, float] = {}
    answered: List[Tuple[PoolResponse, float]] = []

    def collect(responses: List[PoolResponse]) -> None:
        stamp = now()
        for response in responses:
            sent = submitted_at.pop(response.request_id, stamp)
            answered.append((replace(response, payload=None), stamp - sent))

    started = now()
    for index, (kind, entity, relation, k) in enumerate(requests):
        if index in kills:
            pool.kill_worker(kills[index])
        submitted_at[pool.submit(kind, entity, relation=relation, k=k)] = now()
        clock.advance(ARRIVAL_TICK)
        pool.pump()
        collect(pool.responses())
        while window is not None and pool.outstanding() > window:
            pool.wait_any()
            collect(pool.responses())
    collect(pool.drain())
    elapsed = now() - started
    answered.sort(key=lambda pair: pair[0].request_id)
    return [r for r, _ in answered], [latency for _, latency in answered], elapsed


def transcript_line(
    request_id: int, kind: str, entity: int, relation: int, outcome: str, crc: int,
    kinds: Sequence[str],
) -> str:
    """One request's line in a byte-diffed drill transcript; the kind
    is padded to the longest of ``kinds``, the kinds the drill draws."""
    return (
        f"{request_id:05d} {kind:<{max(map(len, kinds))}s} entity={entity:<8d} "
        f"rel={relation:<4d} outcome={outcome:<12s} crc={crc:08x}"
    )


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
    requests = mixed_requests(
        pool, item_ids, config.requests, config.seed, config.k,
        config.serve_prob, config.exist_prob,
    )
    responses, latencies, elapsed = drive(
        pool, requests, window=config.window, timer=timer
    )
    ok = sum(1 for response in responses if response.ok)
    batches = int(pool.metrics.counter("coalesce.batches").value)
    percentiles = (
        np.percentile(latencies, [50, 99]) if latencies else np.zeros(2)
    )
    return ServeLoadReport(
        requests=config.requests,
        ok=ok,
        degraded=len(responses) - ok,
        elapsed=elapsed,
        qps=config.requests / elapsed if elapsed > 0 else 0.0,
        p50=float(percentiles[0]),
        p99=float(percentiles[1]),
        batches=batches,
        mean_batch=config.requests / batches if batches else 0.0,
    )
