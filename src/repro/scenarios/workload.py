"""The seeded scenario workload behind the check.sh / CI gate.

Two phases exercise the new endpoints end to end on virtual time:

1. **Gateway phase** — ``submit_explanation`` / ``submit_recommendation``
   ride the full PR 3 path (admission, deadline rejection, degraded
   fallbacks) against a
   :class:`~repro.scenarios.service.ScenarioService` built from the
   preset catalog's mined rules and an untrained server (serving
   mechanics do not depend on trained weights).  Every ok explanation
   is checked for entailment against the catalog store.
2. **Pool phase** — the same queries as ``explain`` / ``recommend``
   op kinds over a forked two-worker
   :class:`~repro.serving.Supervisor`, driven unwindowed by the one
   pool drive (:func:`repro.serving.loadtest.drive`), with the rule
   sidecar shipped next to the embedding store and payload CRCs
   computed by the wire protocol.

The transcript records request id, kind, entity, relation, outcome,
and payload CRC — never timings or worker identities — so two same-seed runs are
byte-identical; ``tools/check.sh`` (and so the CI ``check`` job) runs
it twice and diffs the output.  A cold-start split summary line
pins the scenario's data generation into the same gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ops import OPS

__all__ = ["ScenarioWorkloadReport", "run_scenarios_workload"]

#: The kinds both phases draw.
KINDS = ("explain", "recommend")


@dataclass
class ScenarioWorkloadReport:
    """Everything the gate prints; :meth:`lines` is what gets diffed."""

    gateway_lines: List[str] = field(default_factory=list)
    pool_lines: List[str] = field(default_factory=list)
    metric_lines: List[str] = field(default_factory=list)
    summary_lines: List[str] = field(default_factory=list)
    passed: bool = False

    def lines(self) -> List[str]:
        out = ["== gateway phase =="]
        out.extend(self.gateway_lines)
        out.append("== pool phase ==")
        out.extend(self.pool_lines)
        out.append("== scenario metrics ==")
        out.extend(self.metric_lines)
        out.extend(self.summary_lines)
        out.append(f"scenarios workload: {'PASS' if self.passed else 'FAIL'}")
        return out


def _crc_of(kind: str, payload) -> int:
    from ..serving.protocol import payload_checksum

    if getattr(payload, "degraded", False):
        return 0
    return payload_checksum(kind, OPS[kind].wire(payload))


def run_scenarios_workload(
    seed: int = 0,
    requests: int = 160,
    pool_requests: int = 96,
    preset: str = "smoke",
) -> ScenarioWorkloadReport:
    """Run both phases; deterministic for a given (seed, sizes, preset)."""
    import tempfile

    import numpy as np

    from ..config import PRESETS
    from ..kg.rules import RuleMiner
    from ..obs import MetricsRegistry
    from ..pipeline import untrained_server
    from ..reliability import AdmissionConfig, GatewayConfig, PKGMGateway
    from ..reliability.retry import StepClock
    from ..serving import PoolConfig, Supervisor
    from ..serving.loadtest import drive, transcript_line
    from .coldstart import generate_coldstart_split
    from .explain import Explainer, save_sidecar
    from .service import ScenarioService, ServiceRecommender

    report = ScenarioWorkloadReport()
    config = PRESETS[preset]()
    catalog, server = untrained_server(config, seed=seed)
    items = sorted(server.known_items())
    num_relations = len(catalog.relations)
    unknown_entity = len(catalog.entities) + 1000

    registry = MetricsRegistry()
    clock = StepClock()
    rules = RuleMiner(min_support=2, min_confidence=0.6).mine(catalog.store)
    explainer = Explainer(
        catalog.store, rules=rules, server=server, registry=registry
    )
    recommender = ServiceRecommender(server, registry=registry)
    service = ScenarioService(explainer, recommender)
    gateway = PKGMGateway(
        [server] * 2,
        GatewayConfig(
            deadline_budget=0.25,
            hedge_after=0.05,
            admission=AdmissionConfig(rate=400.0, burst=64.0, queue_capacity=64),
        ),
        clock=clock,
        seed=seed,
        registry=registry,
        scenarios=service,
    )

    # ------------------------------------------------------------------
    # Phase 1: gateway endpoints.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(seed)
    kinds: Dict[int, Tuple[str, int, int]] = {}
    responses = []
    # A fresh gateway numbers its requests from 0, one per pass.
    for rid in range(requests):
        draw = float(rng.random())
        entity = (
            unknown_entity
            if rng.random() < 0.08
            else int(items[int(rng.integers(len(items)))])
        )
        budget = 0.0 if rng.random() < 0.10 else None
        if draw < 0.5:
            relation = int(rng.integers(num_relations))
            kinds[rid] = ("explain", entity, relation)
            immediate = gateway.submit_explanation(entity, relation, budget=budget)
        else:
            kinds[rid] = ("recommend", entity, -1)
            immediate = gateway.submit_recommendation(entity, k=5, budget=budget)
        if immediate is not None:
            responses.append(immediate)
        clock.advance(0.002)
        responses.extend(gateway.step())
    responses.extend(gateway.drain())

    entailment_failures = 0
    ok_explanations = 0
    by_id = {}
    duplicates = 0
    for response in responses:
        if response.request_id in by_id:
            duplicates += 1
        by_id[response.request_id] = response
    for rid in sorted(by_id):
        response = by_id[rid]
        kind, entity, relation = kinds[rid]
        outcome = response.reason if response.reason is not None else "ok"
        payload = response.vectors
        crc = _crc_of(kind, payload)
        if kind == "explain" and outcome == "ok":
            ok_explanations += 1
            if not payload.entailed_by(catalog.store):
                entailment_failures += 1
        report.gateway_lines.append(
            transcript_line(rid, kind, entity, relation, outcome, crc, KINDS)
        )

    # ------------------------------------------------------------------
    # Phase 2: pool op kinds over forked workers.
    # ------------------------------------------------------------------
    pool_rng = np.random.default_rng(seed + 1)
    pool_calls = []
    for _ in range(pool_requests):
        entity = (
            unknown_entity
            if pool_rng.random() < 0.08
            else int(items[int(pool_rng.integers(len(items)))])
        )
        if pool_rng.random() < 0.5:
            relation = int(pool_rng.integers(num_relations))
            pool_calls.append(("explain", entity, relation, 10))
        else:
            pool_calls.append(("recommend", entity, -1, 5))
    with tempfile.TemporaryDirectory(
        prefix="repro-scenarios-workload-", ignore_cleanup_errors=True
    ) as store_dir:
        server.save_store(store_dir)
        save_sidecar(store_dir, catalog.store, rules)
        pool = Supervisor(
            store_dir, PoolConfig(num_workers=2, max_batch=4), registry=registry
        )
        pool.start()
        try:
            pool_responses, _, _ = drive(pool, pool_calls)
        finally:
            pool.shutdown()
    pool_answered = len(pool_responses)
    report.pool_lines = [
        transcript_line(
            r.request_id, r.kind, r.entity_id, r.relation, r.outcome, r.checksum,
            KINDS,
        )
        for r in pool_responses
    ]

    # ------------------------------------------------------------------
    # Cold-start generation determinism + metrics + verdict.
    # ------------------------------------------------------------------
    split = generate_coldstart_split(catalog, config.interactions)
    cold_items = set(split.cold_items)
    cold_leaks = sum(
        1
        for event in split.interactions.interactions
        if event.item_id in cold_items
    )

    snapshot = registry.snapshot()
    for key in sorted(snapshot):
        if key.startswith("scenarios.") or key.startswith(
            ("gateway.explanations", "gateway.recommendations")
        ):
            report.metric_lines.append(f"{key} {snapshot[key]}")

    report.summary_lines = [
        split.summary(),
        f"gateway: {requests} submitted | {len(by_id)} answered | "
        f"{duplicates} duplicates | {ok_explanations} explanations ok | "
        f"{entailment_failures} entailment failures",
        f"pool: {pool_requests} submitted | {pool_answered} answered",
        f"coldstart leaks: {cold_leaks}",
    ]
    report.passed = (
        len(by_id) == requests
        and duplicates == 0
        and entailment_failures == 0
        and ok_explanations > 0
        and pool_answered == pool_requests
        and cold_leaks == 0
    )
    return report
