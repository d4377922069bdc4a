"""Deterministic observability for the PKGM reproduction.

Operating the paper's system — 50 parameter servers, 200 workers,
billions of service-vector requests — means watching it; reproducing
it with *byte-identical reruns* as the acceptance bar means the watch
itself must be deterministic.  This package is that telemetry layer,
built on the same virtual-time discipline as :mod:`repro.reliability`
(step clocks, seeded ids, no wall-clock reads — lint rule R007 bans
``time.*`` here too):

* :mod:`repro.obs.metrics` — exact counters / gauges / fixed-bucket
  histograms in a process-local :class:`MetricsRegistry` with labels
  and prefix-scoped children, plus :class:`counter_view` bridging the
  legacy stats attributes onto the registry;
* :mod:`repro.obs.trace` — :class:`Tracer` spans over a
  :class:`~repro.reliability.retry.StepClock`, with deterministic span
  ids, a ring-buffer :class:`SpanStore`, Chrome ``trace_event`` JSON
  export, and a text tree renderer;
* :mod:`repro.obs.profile` — :class:`Profiler` per-phase step/op
  accounting hooked into the tensor dispatch layer, with a top-K op
  table via :func:`profile_report`;
* :mod:`repro.obs.export` — Prometheus-text / JSON exporters and the
  seeded workloads behind ``repro metrics`` and ``repro trace``.

Import order note: this is a *leaf* package — the training and serving
stacks import it, so nothing at module level here may import them
back.
"""

from .metrics import MetricsRegistry, counter_view
from .trace import SpanStore, Tracer
from .profile import Profiler, profile_report
from .export import (
    run_metrics_workload,
    run_pool_workload,
    run_trace_workload,
    to_json,
    to_prometheus,
)

__all__ = [
    "MetricsRegistry",
    "Profiler",
    "SpanStore",
    "Tracer",
    "counter_view",
    "profile_report",
    "run_metrics_workload",
    "run_pool_workload",
    "run_trace_workload",
    "to_json",
    "to_prometheus",
]
