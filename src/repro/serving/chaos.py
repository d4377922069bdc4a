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

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..reliability.retry import StepClock
from .protocol import PoolResponse
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


#: Virtual seconds between two seeded arrivals.
ARRIVAL_TICK = 0.001
#: Most requests the drill keeps outstanding.
WINDOW = 8
#: Neighbours a drill ``retrieve`` asks for.
K = 5


def _pick_request(
    rng: np.random.Generator,
    item_ids: Sequence[int],
    num_entities: int,
    num_relations: int,
    serve_prob: float,
    exist_prob: float,
    unknown_prob: float,
) -> Tuple[str, int, int]:
    """(kind, entity, relation) for one seeded arrival; the remainder
    after ``serve_prob`` and ``exist_prob`` is retrieve."""
    draw = float(rng.random())
    if draw < serve_prob:
        kind = "serve"
    elif draw < serve_prob + exist_prob:
        kind = "exist"
    else:
        kind = "retrieve"
    if float(rng.random()) < unknown_prob:
        entity = num_entities + int(rng.integers(0, 1000))
    elif kind == "serve":
        entity = int(item_ids[int(rng.integers(0, len(item_ids)))])
    else:
        entity = int(rng.integers(0, num_entities))
    relation = int(rng.integers(0, num_relations))
    return kind, entity, relation


def _transcript_line(response: PoolResponse) -> str:
    return (
        f"{response.request_id:05d} {response.kind:<8s} "
        f"entity={response.entity_id:<8d} rel={response.relation:<4d} "
        f"outcome={response.outcome:<12s} crc={response.checksum:08x}"
    )


def run_kill_drill(
    store_dir,
    item_ids: Sequence[int],
    config: Optional[ChaosConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ChaosReport:
    """Run the seeded kill drill against a store directory."""
    config = config if config is not None else ChaosConfig()
    registry = registry if registry is not None else MetricsRegistry()
    clock = StepClock()
    pool = Supervisor(
        store_dir,
        PoolConfig(
            num_workers=config.workers,
            max_batch=4,
            max_delay=0.004,
        ),
        clock=clock,
        registry=registry,
    )
    pool.start()
    rng = np.random.default_rng(config.seed)
    kills = dict(zip(config.kill_at, config.kill_workers))
    kills_fired = 0
    try:
        for index in range(config.requests):
            if index in kills:
                pool.kill_worker(kills[index])
                kills_fired += 1
            clock.advance(ARRIVAL_TICK)
            kind, entity, relation = _pick_request(
                rng,
                item_ids,
                pool.num_entities,
                pool.num_relations,
                serve_prob=0.55,
                exist_prob=0.2,
                unknown_prob=0.05,
            )
            pool.submit(kind, entity, relation=relation, k=K)
            pool.pump()
            while pool.outstanding() > WINDOW:
                pool.wait_any()
        pool.drain()
        terminal = pool.terminal()
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
    exactly_once = sorted(terminal) == list(range(config.requests)) and len(
        {r.idempotency_key for r in terminal.values()}
    ) == len(terminal)
    outcomes: Dict[str, int] = {}
    transcript = []
    for request_id in sorted(terminal):
        response = terminal[request_id]
        outcomes[response.outcome] = outcomes.get(response.outcome, 0) + 1
        transcript.append(_transcript_line(response))
    return ChaosReport(
        requests=config.requests,
        workers=config.workers,
        kills=kills_fired,
        outcomes=outcomes,
        transcript=transcript,
        exactly_once=exactly_once,
        duplicates=duplicates,
        operational=operational,
    )
