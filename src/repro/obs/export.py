"""Exporters and seeded telemetry workloads.

Turns a :class:`~repro.obs.metrics.MetricsRegistry` snapshot into the
two formats operators actually consume — Prometheus text exposition
(:func:`to_prometheus`) and canonical JSON (:func:`to_json`) — and
provides the seeded workloads behind the ``repro metrics`` / ``repro
trace`` CLI subcommands.  Both exporters are deterministic: sorted
series, fixed float formatting, no timestamps.  The check.sh obs gate
runs each workload twice and byte-diffs the output.

The workload builders import the serving and training stacks lazily:
:mod:`repro.obs` is a leaf package that those stacks import for their
own instrumentation.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .metrics import MetricsRegistry, _format_value

__all__ = [
    "run_metrics_workload",
    "run_pool_workload",
    "run_trace_workload",
    "to_json",
    "to_prometheus",
]


def _prometheus_key(key: str) -> str:
    """Sanitize a snapshot key: dots become underscores in the name
    part only (label values are preserved verbatim)."""
    if "{" in key:
        name, rest = key.split("{", 1)
        return name.replace(".", "_") + "{" + rest
    return key.replace(".", "_")


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every registered instrument.

    Instruments sharing a name (labeled variants) form one family with
    a single ``# HELP`` / ``# TYPE`` header.  Two names that sanitise to
    one Prometheus name (``a.b_c`` and ``a.b.c``) would export one family
    twice, which is not valid exposition: that raises ``ValueError``.
    Output is sorted and deterministic — two same-seed runs export
    identical bytes.
    """
    families: Dict[str, List] = {}
    for instrument in registry.instruments():
        families.setdefault(instrument.name, []).append(instrument)
    exported: Dict[str, str] = {}
    lines: List[str] = []
    for name in sorted(families):
        instruments = families[name]
        prom_name = name.replace(".", "_")
        if prom_name in exported:
            raise ValueError(
                f"instruments {exported[prom_name]!r} and {name!r} "
                f"both export as {prom_name!r}"
            )
        exported[prom_name] = name
        help_text = next((i.help for i in instruments if i.help), "")
        if help_text:
            lines.append(f"# HELP {prom_name} {help_text}")
        lines.append(f"# TYPE {prom_name} {instruments[0].kind}")
        for instrument in instruments:
            for key, value in instrument.items():
                lines.append(f"{_prometheus_key(key)} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry) -> str:
    """Canonical JSON (sorted keys, 2-space indent) of the snapshot."""
    return json.dumps(registry.snapshot(), sort_keys=True, indent=2)


def run_metrics_workload(
    seed: int = 0, requests: int = 400, preset: str = "smoke"
) -> Tuple[MetricsRegistry, object]:
    """A seeded overload drill with every serving layer instrumented.

    Builds an untrained PKGM server at the preset's catalog scale
    (serving mechanics do not depend on trained weights), fronts it
    with two replicas behind the admission controller, and replays the
    spike profile with a mid-run drain+swap.  Returns ``(registry, loadtest_report)``; with the same
    seed the registry snapshot is byte-identical across runs.
    """
    from ..config import PRESETS
    from ..pipeline import untrained_server
    from ..reliability import (
        AdmissionConfig,
        GatewayConfig,
        LoadTestConfig,
        PKGMGateway,
        run_loadtest,
    )

    _, server = untrained_server(PRESETS[preset](), seed=seed)
    registry = MetricsRegistry()
    gateway = PKGMGateway(
        [server] * 2,
        GatewayConfig(
            deadline_budget=0.25,
            hedge_after=0.05,
            admission=AdmissionConfig(rate=300.0, burst=64.0, queue_capacity=64),
        ),
        seed=seed,
        registry=registry,
    )
    report = run_loadtest(
        gateway,
        server.known_items(),
        LoadTestConfig(
            profile="spike", requests=requests, seed=seed, drain_at=0.5
        ),
    )
    return registry, report


def run_pool_workload(
    seed: int = 0, requests: int = 240, preset: str = "smoke"
) -> Tuple[MetricsRegistry, List[str]]:
    """A seeded multi-process pool run with every worker instrumented.

    Forks a two-worker :class:`~repro.serving.Supervisor` over a
    freshly built store, drives a seeded mixed workload (serve / exist
    / retrieve) through the pool drive, unwindowed, on the virtual
    clock, then runs idle ticks so the supervisor's page sweep checks
    the whole store.  The export surfaces the supervision counters
    (``pool.*``, the idle ticks as ``pool.idle_scrub_ticks``), per-worker
    served totals (``pool.worker.served{worker=...}``), and the store
    counters of the supervisor's own store handle (pages checked as
    ``store.scrub_pages``; damage as ``store.crc_failures`` /
    ``store.pages_quarantined``, which change no worker's reads).
    Routing is pure shard affinity and no worker dies, so the snapshot
    is byte-identical across same-seed runs.
    Returns ``(registry, summary_lines)``.
    """
    import tempfile

    import numpy as np

    from ..config import PRESETS
    from ..pipeline import untrained_server
    from ..serving import PoolConfig, Supervisor
    from ..serving.loadtest import drive

    _, server = untrained_server(PRESETS[preset](), seed=seed)
    items = sorted(server.known_items())
    rng = np.random.default_rng(seed)
    calls = []
    for _ in range(requests):
        draw = rng.random()
        entity = int(items[int(rng.integers(len(items)))])
        relation = int(rng.integers(server.num_relations))
        if draw < 0.5:
            calls.append(("serve", entity, -1, 10))
        elif draw < 0.8:
            calls.append(("exist", entity, relation, 10))
        else:
            calls.append(("retrieve", entity, relation, 5))
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(
        prefix="repro-pool-workload-", ignore_cleanup_errors=True
    ) as store_dir:
        server.save_store(store_dir)
        pool = Supervisor(
            store_dir,
            PoolConfig(num_workers=2, max_batch=4, scrub_pages_per_tick=4),
            registry=registry,
        )
        pool.start()
        try:
            answered = len(drive(pool, calls)[0])
            # Idle ticks: with nothing in flight every tick is a scrub
            # slice, so the sweep accounting is fixed by the tick count.
            for _ in range(64):
                pool.tick()
            pool.ping_all()
            for handle in pool.workers:
                registry.gauge(
                    "pool.worker.served",
                    help="Items served, per worker slot",
                    labels={"worker": handle.index},
                ).set(handle.served_total)
            summary = [
                f"pool workload: {requests} submitted | {answered} answered",
                "workers: "
                + " ".join(
                    f"{handle.index}={handle.served_total}"
                    for handle in pool.workers
                ),
            ]
        finally:
            pool.shutdown()
    return registry, summary


def run_trace_workload(seed: int = 0, epochs: int = 2, preset: str = "smoke"):
    """A seeded pre-training run with spans, phases, and op counts.

    Trains PKGM on the preset's synthetic catalog for ``epochs`` epochs
    with the registry, tracer, and profiler all attached.  Returns
    ``(registry, tracer, profiler, history)``; with the same seed the
    trace export and profile report are byte-identical across runs.
    """
    import dataclasses

    import numpy as np

    from ..config import PRESETS
    from ..core import PKGM, PKGMTrainer
    from ..data import generate_catalog
    from .profile import Profiler
    from .trace import Tracer

    config = PRESETS[preset]()
    catalog = generate_catalog(config.catalog)
    model = PKGM(
        len(catalog.entities),
        len(catalog.relations),
        config.pkgm,
        rng=np.random.default_rng(seed),
    )
    registry = MetricsRegistry()
    tracer = Tracer(seed=seed)
    profiler = Profiler(clock=tracer.clock)
    trainer = PKGMTrainer(
        model,
        dataclasses.replace(config.pkgm_trainer, epochs=epochs, seed=seed),
        registry=registry,
        tracer=tracer,
        profiler=profiler,
    )
    history = trainer.train(catalog.store)
    return registry, tracer, profiler, history
