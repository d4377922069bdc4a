"""Seeded open-loop traffic generation against the overload gateway.

The acceptance question for admission control is not "does it work on
one request" but "what happens to goodput and tail latency when traffic
triples for thirty seconds".  This module drives a
:class:`~repro.reliability.gateway.PKGMGateway` with deterministic
open-loop traffic (arrivals do not wait for responses — the pattern
that actually overloads servers) and reports the metrics operators
watch: goodput, shed rate, p50/p99 virtual latency, hedge-win rate.

Three canonical profiles:

* ``sustained`` — constant arrival rate (capacity planning baseline);
* ``ramp`` — linear growth from 0.2× to 2× the base rate (finds the
  knee where the AIMD limiter starts shedding);
* ``spike`` — 1× base with an 8× burst through the middle fifth (the
  flash-crowd scenario; sheds must absorb it without a single raise).

Everything is a pure function of the seed: inter-arrival gaps, the
Zipf-skewed item popularity, priorities, the occasional unknown id,
and the replicas' latency draws.  Two runs with the same
:class:`LoadTestConfig` produce byte-identical reports, so overload
behaviour is replayable and diffable in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .gateway import GatewayResponse, PKGMGateway


def _sustained(frac: float) -> float:
    """Constant 1× the base rate."""
    return 1.0


def _ramp(frac: float) -> float:
    """Linear 0.2× → 2× of the base rate across the run."""
    return 0.2 + 1.8 * frac


def _spike(frac: float) -> float:
    """1× base with an 8× flash crowd through the middle fifth."""
    return 8.0 if 0.4 <= frac < 0.6 else 1.0


#: Share of arrivals that ask for an id outside the catalog.
UNKNOWN_PROB = 0.01

#: Profile name → arrival-rate multiplier over run fraction [0, 1).
PROFILES: Dict[str, Callable[[float], float]] = {
    "sustained": _sustained,
    "ramp": _ramp,
    "spike": _spike,
}


@dataclass(frozen=True)
class LoadTestConfig:
    """One reproducible load-test scenario."""

    profile: str = "spike"
    requests: int = 2000
    base_rate: float = 400.0  # mean arrivals per virtual second at 1x
    seed: int = 0
    drain_at: Optional[float] = 0.5  # run fraction for drain+swap (None: never)

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(
                f"profile must be one of {sorted(PROFILES)}, got {self.profile!r}"
            )
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if self.drain_at is not None and not 0.0 < self.drain_at < 1.0:
            raise ValueError("drain_at must be in (0, 1) when set")


@dataclass
class LoadTestReport:
    """What one load-test run measured (all latencies virtual seconds)."""

    profile: str
    requests: int
    completed: int
    ok: int
    shed: int
    degraded_backend: int
    deadline_misses: int
    hedges_sent: int
    hedge_wins: int
    drains: int
    swaps: int
    p50_latency: float
    p99_latency: float
    duration: float

    @property
    def goodput(self) -> float:
        return self.ok / self.requests if self.requests else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def hedge_win_rate(self) -> float:
        return self.hedge_wins / self.hedges_sent if self.hedges_sent else 0.0

    def as_rows(self) -> List[str]:
        """Fixed-precision report lines (byte-identical per seed)."""
        return [
            f"profile {self.profile} | requests {self.requests} | "
            f"duration {self.duration:.3f}s",
            f"goodput {self.goodput:.4f} | shed {self.shed_rate:.4f} | "
            f"degraded-backend {self.degraded_backend} | "
            f"deadline-misses {self.deadline_misses}",
            f"latency p50 {self.p50_latency:.6f}s | p99 {self.p99_latency:.6f}s",
            f"hedges {self.hedges_sent} | hedge-wins {self.hedge_wins} | "
            f"hedge-win-rate {self.hedge_win_rate:.4f}",
            f"drains {self.drains} | swaps {self.swaps}",
        ]


def run_loadtest(
    gateway: PKGMGateway,
    item_ids: Sequence[int],
    config: Optional[LoadTestConfig] = None,
) -> LoadTestReport:
    """Drive ``gateway`` with one open-loop traffic scenario.

    ``item_ids`` is the catalog to draw (Zipf-skewed) requests from.
    With ``config.drain_at`` set, the run performs a mid-run
    ``drain()`` + ``swap()`` that re-installs the primary replica's
    current snapshot source, i.e. a same-model refresh.
    Raises only on configuration errors; traffic itself can never
    raise (that is the gateway's contract, and the report asserts
    every request was answered exactly once).
    """
    config = config if config is not None else LoadTestConfig()
    if not item_ids:
        raise ValueError("need a non-empty item catalog")
    shape = PROFILES[config.profile]
    rng = np.random.default_rng(config.seed)
    items = np.asarray(sorted(int(i) for i in item_ids), dtype=np.int64)
    # Zipf-skewed popularity: weight 1/rank^1.1 over the sorted catalog.
    weights = 1.0 / np.arange(1, len(items) + 1, dtype=np.float64) ** 1.1
    weights /= weights.sum()
    unknown_id = int(items.max()) + 10**6

    responses: List[GatewayResponse] = []
    drain_index = (
        int(config.requests * config.drain_at) if config.drain_at is not None else -1
    )
    start_time = gateway.clock.now()
    for index in range(config.requests):
        if index == drain_index:
            responses.extend(gateway.drain())
            gateway.swap(gateway.replicas[0].server)
        rate = config.base_rate * shape(index / config.requests)
        gateway.clock.advance(float(rng.exponential(1.0 / rate)))
        responses.extend(gateway.step())
        if float(rng.random()) < UNKNOWN_PROB:
            entity = unknown_id + index
        else:
            entity = int(items[int(rng.choice(len(items), p=weights))])
        priority = int(rng.integers(0, 3))  # three priority levels
        shed = gateway.submit(entity, priority=priority)
        if shed is not None:
            responses.append(shed)
    responses.extend(gateway.drain())
    duration = gateway.clock.now() - start_time

    if len(responses) != config.requests:
        raise AssertionError(
            f"gateway answered {len(responses)} of {config.requests} requests; "
            "the exactly-once contract is broken"
        )
    seen = {response.request_id for response in responses}
    if len(seen) != config.requests:
        raise AssertionError("duplicate responses violate the exactly-once contract")

    stats = gateway.stats
    ok_latencies = np.asarray(
        [response.latency for response in responses if response.ok], dtype=np.float64
    )
    if ok_latencies.size:
        p50 = float(np.percentile(ok_latencies, 50))
        p99 = float(np.percentile(ok_latencies, 99))
    else:
        p50 = p99 = float("nan")
    return LoadTestReport(
        profile=config.profile,
        requests=config.requests,
        completed=len(responses),
        ok=stats.completed_ok,
        shed=stats.shed,
        degraded_backend=stats.backend_errors,
        deadline_misses=stats.deadline_queue_misses + stats.deadline_backend_misses,
        hedges_sent=stats.hedges_sent,
        hedge_wins=stats.hedge_wins,
        drains=stats.drains,
        swaps=stats.swaps,
        p50_latency=p50,
        p99_latency=p99,
        duration=duration,
    )
