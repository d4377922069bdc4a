"""Observability overhead — telemetry must be cheap enough to leave on.

Times the PR-3 overload loadtest (spike profile through the gateway:
admission control, deadlines, hedging, the registry-backed gateway
and admission counters) twice: once as shipped, with every counter/gauge/histogram update live,
and once with the instrument mutators no-oped — the registry plumbing
(descriptor reads, instrument lookups) stays in place, so the measured
delta is exactly the per-update accounting cost the obs layer added.

The runs alternate and each variant is scored by its best-of-N wall
time (minimum is the standard noise-robust estimator for CPU-bound
loops).  Acceptance: the instrumented run is within 5% of the no-op
baseline, so there is no reason ever to ship with telemetry off.

``time.perf_counter`` is fine here — benchmarks measure real cost and
live outside the virtual-clock packages that lint rule R007 covers.
"""

import time

from repro.config import smoke_config
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.pipeline import untrained_server
from repro.reliability import (
    AdmissionConfig,
    GatewayConfig,
    LoadTestConfig,
    PKGMGateway,
)
from repro.reliability.loadtest import run_loadtest

SEED = 0
REQUESTS = 4000
ROUNDS = 5

#: (class, method) pairs that mutate instruments on the hot path.
MUTATORS = (
    (Counter, "inc"),
    (Counter, "set_total"),
    (Gauge, "set"),
    (Gauge, "add"),
    (Histogram, "observe"),
)


def _build_server():
    """Bench-scale untrained server (serving cost is weight-agnostic)."""
    return untrained_server(smoke_config(), seed=SEED)[1]


def _run_loadtest(server):
    gateway = PKGMGateway(
        [server] * 2,
        GatewayConfig(
            deadline_budget=0.25,
            hedge_after=0.05,
            admission=AdmissionConfig(rate=300.0, burst=64.0, queue_capacity=64),
        ),
        seed=SEED,
    )
    return run_loadtest(
        gateway,
        server.known_items(),
        LoadTestConfig(profile="spike", requests=REQUESTS, seed=SEED),
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class _no_op_instruments:
    """Temporarily no-op every instrument mutator (the baseline)."""

    def __enter__(self):
        self._saved = [(cls, name, getattr(cls, name)) for cls, name in MUTATORS]
        for cls, name in MUTATORS:
            setattr(cls, name, lambda self, *args: None)
        return self

    def __exit__(self, exc_type, exc, tb):
        for cls, name, method in self._saved:
            setattr(cls, name, method)


def test_obs_overhead(benchmark, record_table):
    server = _build_server()
    _run_loadtest(server)  # warm caches and code paths once
    instrumented = []
    baseline = []

    def sweep():
        for _ in range(ROUNDS):
            instrumented.append(_timed(lambda: _run_loadtest(server)))
            with _no_op_instruments():
                baseline.append(_timed(lambda: _run_loadtest(server)))

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    best_instrumented = min(instrumented)
    best_baseline = min(baseline)
    overhead = best_instrumented / best_baseline - 1.0

    lines = [
        "Observability overhead — spike loadtest "
        f"({REQUESTS} requests, best of {ROUNDS}, seed {SEED})",
        "variant | seconds",
        f"metrics no-oped (baseline) | {best_baseline:.3f}",
        f"metrics live (shipped) | {best_instrumented:.3f}",
        f"overhead | {overhead:+.1%} (acceptance: < +5%)",
    ]
    record_table("obs_overhead", lines)

    assert overhead < 0.05, (
        f"obs layer costs {overhead:.1%} on the overload loadtest "
        "(acceptance bar is 5%)"
    )
