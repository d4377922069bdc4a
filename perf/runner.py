"""Passes and runs.

A *pass* is one workload measured in one fresh process: generate the
inputs, run the set-up chain several times, warm up, then
run calibrated rounds until the time budget is spent.  A *run* is what
``python -m perf run`` does: three passes per workload, interleaved
round-robin so a slow window on the host costs every workload one pass
instead of one workload all of its passes, summarised by medians (and
by percentiles over the pooled latency samples).  ``--trace 1`` runs
one traced pass per workload instead and reports the per-layer
metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import ROOT, manifest
from .calib import KERNELS, Calibrator, load_reference, load_weights
from .harness import (
    Meter,
    calibration_summary,
    latencies,
    peak_rss_mib,
    pin_to_one_cpu,
    reset_peak_rss,
    resident_mib,
    settle_gc,
    setup_seconds,
    throughput,
)
from .trace import Tracer
from .workloads import WORKLOADS
from .workloads.base import TracedRun

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Exported into every pass.  Multi-threaded BLAS on a 2-core box
#: produced 60 % outliers with unchanged calibration; hash
#: randomisation would reorder set iteration between passes.
PASS_ENVIRONMENT = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Share of a traced pass's time budget spent in rounds; direct layer
#: drives and the trace export take the rest.
TRACED_ROUND_SHARE = 0.6

#: Fresh-process passes per workload in a comparable run.
PASSES = 3


# ----------------------------------------------------------------------
# One pass (runs in the child process)
# ----------------------------------------------------------------------
def run_pass(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> dict:
    """Measure one workload once; returns a JSON-serialisable record."""
    pin_to_one_cpu()
    workload = WORKLOADS[name](seed)
    setup_repeats = 1 if smoke else workload.setup_repeats
    calibrator = Calibrator(load_reference())
    weights = load_weights(name)
    meter = Meter(calibrator, weights["setup"])
    clock = meter.clock
    try:
        for _ in range(2):  # first-call effects of the kernels themselves
            calibrator.measure()
        calibrator.history.clear()
        # The interpreter, numpy, the imported program and the kernels'
        # buffers: what peak RSS holds before the workload exists.
        rss_floor = resident_mib()
        generate, _ = meter.time_call(workload.generate)

        steps: Dict[str, list] = {}
        for _ in range(setup_repeats):
            for step, timing in workload.setup(meter).items():
                steps.setdefault(step, []).append(timing)
        meter.weights = weights["rounds"]
        workload.release()
        workload.warm_up()
        settle_gc()
        meter.forget()
        processes = [os.getpid()] + workload.child_pids()
        reset_peak_rss(processes)

        tracer: Optional[Tracer] = None
        counters_before: Dict[str, float] = {}
        counters_after: Dict[str, float] = {}
        counter_items = 0
        minimum_rounds = 2
        if trace:
            tracer = Tracer(clock)
            workload.register_spans(tracer)
            counters_before = workload.counters()
            # The counter rounds, and a traced and an untraced cycle.
            minimum_rounds = max(workload.counter_rounds, 2 * workload.cycle_rounds)
            seconds *= TRACED_ROUND_SHARE

        deadline = clock() + seconds
        index = 0
        while (
            index < minimum_rounds
            or clock() < deadline
            or index % workload.cycle_rounds
        ):
            # Traced and untraced rounds alternate cycle by cycle, so
            # both kinds see every phase of a workload's cycle.
            if tracer is not None and index // workload.cycle_rounds % 2 == 0:
                tracer.round = index
                with tracer.installed():
                    measured = meter.run_round(
                        lambda: workload.round(index, tracer), traced=True
                    )
            else:
                measured = meter.run_round(lambda: workload.round(index))
            index += 1
            if trace and index <= workload.counter_rounds:
                counter_items += measured.result.items
                if index == workload.counter_rounds:
                    counters_after = workload.counters()

        peak_rss = peak_rss_mib(processes)
        facts = workload.finish()
        untraced = [m for m in meter.rounds if not m.traced]
        record = {
            "workload": name,
            "seed": seed,
            "rounds": len(meter.rounds),
            "attempted": sum(m.result.attempted for m in meter.rounds),
            "failed": sum(m.result.failed for m in meter.rounds)
            + workload.pass_failures,
            "failures": list(workload.failures),
            "facts": facts,
            "throughput_items_s": throughput(untraced),
            "raw_throughput_items_s": throughput(untraced, normalised=False),
            "latencies": latencies(untraced),
            "raw_latencies": latencies(untraced, normalised=False),
            "setup_s": setup_seconds(steps),
            "raw_setup_s": setup_seconds(steps, normalised=False),
            "peak_rss_mib": peak_rss,
            "rss_floor_mib": rss_floor,
            "generate_s": generate.norm,
            "speed_factors": [m.factor for m in meter.rounds],
        }
        if tracer is not None:
            traced = [m for m in meter.rounds if m.traced]
            run = TracedRun(
                tracer=tracer,
                self_times=tracer.self_times(
                    {i: m.factor for i, m in enumerate(meter.rounds)}
                ),
                counters={
                    key: counters_after[key] - counters_before.get(key, 0)
                    for key in counters_after
                },
                counter_items=counter_items,
                untraced=untraced,
                meter=meter,
                setup=steps,
            )
            layer = workload.layer_metrics(run)
            layer["data.catalog.generate_s"] = generate.norm
            slow = throughput(traced)
            layer["harness.trace_overhead_pct"] = (
                (record["throughput_items_s"] / slow - 1.0) * 100.0 if slow else 0.0
            )
            layer["harness.span_coverage_pct"] = span_coverage_pct(tracer, traced)
            record["layer"] = layer
            tracer.write(RESULTS_DIR / f"trace_{name}.json")
        record["calibration_ms"] = calibration_summary(calibrator)
    finally:
        workload.close()
        workload.remove_workdir()
    return record


def span_coverage_pct(tracer: Tracer, traced_rounds) -> float:
    """Share of the traced rounds' busy time that layer spans account
    for by their self times (``op.*`` root spans only mark operations)."""
    busy = sum(measured.result.busy for measured in traced_rounds)
    covered = sum(
        span.self_time
        for span in tracer.spans
        if span.round >= 0 and not span.name.startswith("op.")
    )
    return covered / busy * 100.0 if busy else 0.0


# ----------------------------------------------------------------------
# One run (the parent process)
# ----------------------------------------------------------------------
def _spawn_pass(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """Run one pass in a fresh interpreter and parse its record."""
    command = [
        sys.executable,
        "-m",
        "perf",
        "pass",
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        repr(float(seconds)),
        "--trace",
        str(int(trace)),
    ] + (["--smoke"] if smoke else [])
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, **PASS_ENVIRONMENT},
        stdout=subprocess.PIPE,
        check=False,
        timeout=170,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"pass of {name!r} exited with code {completed.returncode}"
        )
    return json.loads(completed.stdout.decode("utf-8").strip().splitlines()[-1])


def summarise_end_to_end(records: Sequence[dict]) -> Dict[str, float]:
    """The end-to-end metrics (and their raw twins) of one workload."""
    pooled = [value for record in records for value in record["latencies"]]
    raw_pooled = [value for record in records for value in record["raw_latencies"]]
    factors = [f for record in records for f in record["speed_factors"]]
    summary = {
        "throughput_items_s": statistics.median(
            record["throughput_items_s"] for record in records
        ),
        "latency_p50_ms": float(np.percentile(pooled, 50)) * 1e3,
        "latency_p95_ms": float(np.percentile(pooled, 95)) * 1e3,
        "setup_s": statistics.median(record["setup_s"] for record in records),
        "peak_rss_mib": statistics.median(
            record["peak_rss_mib"] for record in records
        ),
        "harness.raw_throughput_items_s": statistics.median(
            record["raw_throughput_items_s"] for record in records
        ),
        "harness.raw_latency_p50_ms": float(np.percentile(raw_pooled, 50)) * 1e3,
        "harness.raw_setup_s": statistics.median(
            record["raw_setup_s"] for record in records
        ),
        "harness.speed_factor_min": min(factors),
        "harness.speed_factor_max": max(factors),
        "harness.samples": float(len(pooled)),
        "harness.rss_floor_mib": statistics.median(
            record["rss_floor_mib"] for record in records
        ),
    }
    for kernel in KERNELS:
        summary[f"harness.calib_{kernel}_ms"] = statistics.median(
            record["calibration_ms"][kernel] for record in records
        )
    return summary


def summarise_layers(record: dict) -> Dict[str, float]:
    """Every per-layer metric of one traced pass; 0 where the workload
    never enters the layer (the bypass prediction, made checkable)."""
    harness = summarise_end_to_end([record])
    layer = dict(record["layer"])
    layer.update(
        (key, value) for key, value in harness.items() if key.startswith("harness.")
    )
    return {name: float(layer.get(name, 0.0)) for name in manifest.layer_names()}


def cross_pass_failures(name: str, records: Sequence[dict]) -> List[str]:
    """Facts that must be identical in every pass of one workload."""
    failures: List[str] = []
    keys = set().union(*(record["facts"] for record in records))
    for key in sorted(key for key in keys if key.startswith("same.")):
        values = {json.dumps(record["facts"].get(key)) for record in records}
        if len(values) > 1:
            failures.append(f"{name}: {key[5:]} differs between passes")
    return failures


@dataclass
class WorkloadReport:
    name: str
    end_to_end: Optional[Dict[str, float]]
    per_layer: Optional[Dict[str, float]]
    attempted: int
    failed: int
    failures: List[str]

    def contract_metrics(self) -> Dict[str, dict]:
        """The metrics object of the driver's result line."""
        out: Dict[str, dict] = {}
        for values, metrics in (
            (self.end_to_end, manifest.end_to_end()),
            (self.per_layer, manifest.per_layer()),
        ):
            if values is not None:
                for metric in metrics:
                    out[metric["name"]] = {
                        "value": values[metric["name"]],
                        "unit": metric["unit"],
                    }
        return out


def run_benchmark(
    names: Sequence[str],
    seed: int,
    seconds: float,
    end_to_end: bool,
    per_layer: bool,
    smoke: bool = False,
) -> List[WorkloadReport]:
    """Measure ``names``; passes interleave round-robin across them.

    A smoke run is one pass per workload with one set-up repeat, traced
    when layer metrics are wanted and feeding both summaries; its
    numbers are not comparable with anything.
    """
    measured: Dict[str, List[dict]] = {name: [] for name in names}  # untraced
    traced: Dict[str, dict] = {}
    if smoke:
        for name in names:
            record = _spawn_pass(name, seed, seconds, per_layer, True)
            if per_layer:
                traced[name] = record
            else:
                measured[name] = [record]
    else:
        if end_to_end:
            for _ in range(PASSES):
                for name in names:
                    measured[name].append(
                        _spawn_pass(name, seed, seconds / PASSES, False)
                    )
        if per_layer:
            for name in names:
                traced[name] = _spawn_pass(name, seed, seconds, True)

    reports = []
    for name in names:
        passes = measured[name] + ([traced[name]] if name in traced else [])
        # A smoke run's single traced pass also stands in for the
        # end-to-end passes, through its untraced rounds.
        summarised = passes if smoke and end_to_end else measured[name]
        unequal = cross_pass_failures(name, measured[name])
        reports.append(
            WorkloadReport(
                name=name,
                end_to_end=summarise_end_to_end(summarised) if summarised else None,
                per_layer=summarise_layers(traced[name]) if name in traced else None,
                attempted=sum(record["attempted"] for record in passes),
                failed=sum(record["failed"] for record in passes) + len(unequal),
                failures=[f for record in passes for f in record["failures"]]
                + unequal,
            )
        )
    return reports


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def format_report(report: WorkloadReport) -> List[str]:
    lines = [f"== {report.name} =="]
    units = manifest.units()
    # Both blocks carry harness.* twins; the end-to-end passes' win.
    merged: Dict[str, float] = {**(report.per_layer or {}), **(report.end_to_end or {})}
    for metric, value in merged.items():
        lines.append(f"  {metric:<44s} {value:>16.6g} {units.get(metric, '')}")
    lines.append(
        f"  operations attempted {report.attempted}, failed {report.failed}"
    )
    lines.extend(f"  FAILURE: {message}" for message in report.failures)
    return lines


def result_line(reports: Sequence[WorkloadReport]) -> dict:
    """The one JSON object a run ends with."""
    metrics: Dict[str, dict] = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report.name}/"
        for metric, value in report.contract_metrics().items():
            metrics[prefix + metric] = value
    failed = sum(report.failed for report in reports)
    return {
        "correct": failed == 0,
        "attempted": sum(report.attempted for report in reports),
        "failed": failed,
        "metrics": metrics,
    }


def host_facts() -> Dict[str, object]:
    """What a committed result needs to be read later."""
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        # The commit the measured tree sits on (None outside a git checkout).
        "git_head": head.stdout.decode().strip() or None,
        "recorded_unix": int(time.time()),
    }


def results_document(
    reports: Iterable[WorkloadReport], seed: int, seconds: float
) -> dict:
    return {
        "seed": seed,
        "run_seconds": seconds,
        "host": host_facts(),
        "workloads": {
            report.name: {
                "end_to_end": report.end_to_end,
                "per_layer": report.per_layer,
                "attempted": report.attempted,
                "failed": report.failed,
            }
            for report in reports
        },
    }
