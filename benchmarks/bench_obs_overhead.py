"""Observability overhead — telemetry must be cheap enough to leave on.

Times the PR-3 overload loadtest (spike profile through the gateway:
admission control, deadlines, hedging, the registry-backed gateway
and admission counters) twice: once as shipped, with every counter/gauge/histogram update live,
and once with the instrument mutators no-oped — the registry plumbing
(descriptor reads, instrument lookups) stays in place, so the measured
delta is exactly the per-update accounting cost the obs layer added.

Each round runs both variants back to back, the shipped one first in
even rounds and the no-op one first in odd rounds, each after a
``gc.collect()``, and the overhead is the median of the rounds' paired
differences over the median no-op time: one scheduling hiccup moves one
difference, not the estimate, as it could move a best-of-N ratio.  On a
2-CPU host, 21 rounds read an A/A (both variants live) at −0.4 to +1.6 %
and a +10 % cost added to the shipped variant at +8.7 to +11.4 %.
Acceptance: the overhead is under 5%, so there is no reason ever to
ship with telemetry off.

``time.perf_counter`` is fine here — benchmarks measure real cost and
live outside the virtual-clock packages that lint rule R007 covers.
"""

import gc
import statistics
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
ROUNDS = 21

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
    gc.collect()  # no run pays for the garbage an earlier one left
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


def paired_overhead(instrumented, baseline):
    """Median paired difference over the median baseline time."""
    differences = [live - no_op for live, no_op in zip(instrumented, baseline)]
    return statistics.median(differences) / statistics.median(baseline)


def test_obs_overhead(benchmark, record_table):
    server = _build_server()
    _run_loadtest(server)  # warm caches and code paths once
    instrumented = []
    baseline = []

    def shipped():
        instrumented.append(_timed(lambda: _run_loadtest(server)))

    def no_op():
        with _no_op_instruments():
            baseline.append(_timed(lambda: _run_loadtest(server)))

    def sweep():
        for round_ in range(ROUNDS):
            for variant in (shipped, no_op)[:: 1 if round_ % 2 == 0 else -1]:
                variant()

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    overhead = paired_overhead(instrumented, baseline)

    lines = [
        "Observability overhead — spike loadtest "
        f"({REQUESTS} requests, {ROUNDS} alternating rounds, seed {SEED})",
        "variant | median seconds",
        f"metrics no-oped (baseline) | {statistics.median(baseline):.3f}",
        f"metrics live (shipped) | {statistics.median(instrumented):.3f}",
        f"overhead (median paired) | {overhead:+.1%} (acceptance: < +5%)",
    ]
    record_table("obs_overhead", lines)

    assert overhead < 0.05, (
        f"obs layer costs {overhead:.1%} on the overload loadtest "
        "(acceptance bar is 5%)"
    )
