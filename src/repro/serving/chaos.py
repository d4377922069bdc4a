"""Process-level chaos: SIGKILL workers mid-load, prove exactly-once.

:func:`run_kill_drill` drives a seeded mixed workload (service
vectors, existence scores, nearest-tail retrievals, plus a sprinkle of
unknown ids) through a :class:`~repro.serving.supervisor.Supervisor`
while killing live workers at fixed request indices.  It then asserts
the pool's exactly-once contract: every submitted request has exactly
one terminal outcome, no duplicates were emitted, and at least one
worker death was actually detected per kill.

The transcript is deliberately *timing-invariant*: each line records
``(request id, kind, entity, relation, outcome, payload CRC32)`` —
never which worker answered or whether a replay happened.  Primary and
failover sibling read the same store, so the payload bytes (and hence
the CRC) are identical either way; OS scheduling decides only *where*
a request is answered, never *what* the answer is.  That is what makes
two runs of the drill byte-identical, which the check.sh / CI gates
verify with a literal ``diff``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from .loadtest import drive, mixed_requests, transcript_line
from .supervisor import PoolConfig, Supervisor


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one kill drill."""

    requests: int = 240
    workers: int = 3
    kill_at: Tuple[int, ...] = (60, 140)  # request indices
    kill_workers: Tuple[int, ...] = (0, 1)  # which worker dies at each
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.kill_at) != len(self.kill_workers):
            raise ValueError("kill_at and kill_workers must pair up")
        if self.workers < 2 and self.kill_at:
            raise ValueError("killing workers needs at least 2 of them")
        # One kill per request index, each before a request that exists
        # and aimed at a worker that exists: otherwise a kill silently
        # never fires and the drill could pass with fewer deaths.
        if len(set(self.kill_at)) != len(self.kill_at):
            raise ValueError(f"kill_at repeats a request index: {self.kill_at}")
        if any(not 0 <= index < self.requests for index in self.kill_at):
            raise ValueError(
                f"kill_at must lie in [0, {self.requests}), got {self.kill_at}"
            )
        if any(not 0 <= worker < self.workers for worker in self.kill_workers):
            raise ValueError(
                f"kill_workers must lie in [0, {self.workers}), "
                f"got {self.kill_workers}"
            )


@dataclass
class ChaosReport:
    """Everything the drill measured, split deterministic / operational."""

    requests: int
    workers: int
    kills: int
    outcomes: Dict[str, int]
    transcript: List[str]
    exactly_once: bool
    duplicates: int
    operational: Dict[str, int]  # timing-dependent counters (not diffed)

    @property
    def ok(self) -> bool:
        return (
            self.exactly_once
            and self.duplicates == 0
            and self.outcomes.get("failed", 0) == 0
            and self.outcomes.get("ok", 0) > 0
            and self.operational.get("worker_deaths", 0) >= self.kills
        )

    def lines(self) -> List[str]:
        """The byte-diffable transcript (deterministic across runs)."""
        out = [
            f"serve chaos: {self.requests} requests | {self.workers} workers "
            f"| {self.kills} SIGKILLs"
        ]
        out.extend(self.transcript)
        out.append(
            "outcomes: "
            + " | ".join(
                f"{name} {self.outcomes.get(name, 0)}"
                for name in ("ok", "unknown-id", "quarantined", "deadline", "failed")
            )
        )
        status = "PASS" if self.exactly_once and self.duplicates == 0 else "FAIL"
        out.append(
            f"exactly-once: {status} ({self.requests} submitted, "
            f"{sum(self.outcomes.values())} terminal, "
            f"{self.duplicates} duplicates)"
        )
        out.append(f"drill: {'RECOVERED' if self.ok else 'FAILED'}")
        return out

    def detail_lines(self) -> List[str]:
        """Operational counters — real-timing dependent, never diffed."""
        return [
            f"  {name} {value}" for name, value in sorted(self.operational.items())
        ]


#: Most requests the drill keeps outstanding.
WINDOW = 8
#: Neighbours a drill ``retrieve`` asks for.
K = 5
#: The kinds the drill draws.
KINDS = ("serve", "exist", "retrieve")


def run_kill_drill(
    store_dir,
    item_ids: Sequence[int],
    config: Optional[ChaosConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ChaosReport:
    """Run the seeded kill drill against a store directory."""
    config = config if config is not None else ChaosConfig()
    registry = registry if registry is not None else MetricsRegistry()
    pool = Supervisor(
        store_dir,
        # max_delay: a group flushes four arrivals after it opens (see drive).
        PoolConfig(num_workers=config.workers, max_batch=4, max_delay=0.0045),
        registry=registry,
    )
    pool.start()
    try:
        requests = mixed_requests(
            pool, item_ids, config.requests, config.seed, K,
            serve_prob=0.55, exist_prob=0.2, unknown_prob=0.05,
        )
        kills = dict(zip(config.kill_at, config.kill_workers))
        responses, _, _ = drive(pool, requests, window=WINDOW, kills=kills)
        duplicates = int(registry.counter("pool.duplicates_dropped").value)
        operational = {
            name: int(registry.counter(f"pool.{name}").value)
            for name in (
                "worker_deaths",
                "worker_restarts",
                "replays",
                "failovers",
                "batches_sent",
                "heartbeat_losses",
            )
        }
    finally:
        pool.shutdown()
    # The drive returns every hand-out sorted by id, repeats and strays
    # included: exactly once is each submitted id once and nothing else.
    exactly_once = [r.request_id for r in responses] == list(range(config.requests))
    outcomes: Dict[str, int] = {}
    for response in responses:
        outcomes[response.outcome] = outcomes.get(response.outcome, 0) + 1
    transcript = [
        transcript_line(
            r.request_id, r.kind, r.entity_id, r.relation, r.outcome, r.checksum,
            KINDS,
        )
        for r in responses
    ]
    return ChaosReport(
        requests=config.requests,
        workers=config.workers,
        kills=len(config.kill_at),
        outcomes=outcomes,
        transcript=transcript,
        exactly_once=exactly_once,
        duplicates=duplicates,
        operational=operational,
    )
