"""Normalisation and pooled-percentile maths on synthetic timings."""

import math
import os

import numpy as np
import pytest

from perf import runner
from perf.calib import speed_factor
from perf.harness import (
    Meter,
    RoundResult,
    latencies,
    peak_rss_mib,
    reset_peak_rss,
    resident_mib,
    setup_seconds,
    throughput,
    trim_heap,
)

from .fakes import EQUAL, REFERENCE, FakeHost, calibrator

OP_SECONDS = 0.004  # at reference speed
OPS_PER_ROUND = 20
ITEMS_PER_OP = 64


def _round(host: FakeHost) -> RoundResult:
    latencies = []
    for _ in range(OPS_PER_ROUND):
        started = host.clock()
        host.work(OP_SECONDS)
        latencies.append(host.clock() - started)
    return RoundResult(
        busy=sum(latencies), latencies=latencies, items=OPS_PER_ROUND * ITEMS_PER_OP
    )


def _measure(speeds) -> Meter:
    host = FakeHost()
    meter = Meter(calibrator(host), EQUAL, clock=host.clock)
    for speed in speeds:
        host.speed = speed
        meter.run_round(lambda: _round(host))
    return meter


def test_speed_factor_is_a_weighted_geometric_mean():
    slow = {kernel: 2.0 * value for kernel, value in REFERENCE.items()}
    assert speed_factor(slow, slow, REFERENCE, EQUAL) == pytest.approx(0.5)
    mixed = dict(REFERENCE, interp=REFERENCE["interp"] * 8.0)
    assert speed_factor(mixed, mixed, REFERENCE, EQUAL) == pytest.approx(0.5)
    # A workload made of one regime follows that kernel alone.
    only_interp = {"interp": 1.0, "numeric": 0.0, "bandwidth": 0.0}
    assert speed_factor(mixed, mixed, REFERENCE, only_interp) == pytest.approx(0.125)
    half = {"interp": 0.5, "numeric": 0.0, "bandwidth": 0.5}
    assert speed_factor(mixed, slow, REFERENCE, half) == pytest.approx(
        (1 / 5.0 * 1 / 1.5) ** 0.5
    )


def test_midrun_slowdown_leaves_normalised_throughput_within_3_percent():
    truth = ITEMS_PER_OP / OP_SECONDS
    steady = _measure([1.0] * 40)
    slowed = _measure([1.0] * 20 + [0.7] * 20)  # 30 % slower half-way
    assert throughput(steady.rounds) == pytest.approx(truth, rel=1e-9)
    assert throughput(slowed.rounds) == pytest.approx(truth, rel=0.03)
    # The raw twin does move, which is what it is kept for.
    assert throughput(slowed.rounds, normalised=False) < 0.9 * truth


def test_normalised_latencies_read_at_reference_speed():
    for speed in (0.5, 0.8, 2.0):
        meter = _measure([speed] * 3)
        for measured in meter.rounds:
            assert measured.factor == pytest.approx(speed)
            assert measured.result.latencies[0] == pytest.approx(OP_SECONDS / speed)
        for latency in latencies(meter.rounds):
            assert latency == pytest.approx(OP_SECONDS)


def test_setup_is_the_sum_of_step_medians():
    host = FakeHost()
    meter = Meter(calibrator(host), EQUAL, clock=host.clock)
    steps = {"save": [], "open": []}
    for speed, save, opened in ((1.0, 0.2, 0.1), (0.5, 0.2, 0.1), (1.0, 0.9, 0.1)):
        host.speed = speed
        meter.forget()  # the carried calibration was taken at the old speed
        steps["save"].append(meter.time_call(lambda: host.work(save))[0])
        steps["open"].append(meter.time_call(lambda: host.work(opened))[0])
    # The slow repeat normalises back; the 0.9 s outlier loses the median.
    assert setup_seconds(steps) == pytest.approx(0.3, rel=0.1)
    assert setup_seconds(steps, normalised=False) > 0.3


def test_latency_percentiles_pool_the_passes():
    def record(latencies, rate):
        return {
            "latencies": latencies,
            "raw_latencies": latencies,
            "throughput_items_s": rate,
            "raw_throughput_items_s": rate,
            "setup_s": rate / 100.0,
            "raw_setup_s": rate / 100.0,
            "peak_rss_mib": 100.0 + rate,
            "rss_floor_mib": 90.0,
            "speed_factors": [1.0],
            "calibration_ms": dict(REFERENCE),
        }

    passes = [
        record([0.001] * 90, 10.0),
        record([0.002] * 90, 30.0),
        record([0.010] * 20, 20.0),
    ]
    summary = runner.summarise_end_to_end(passes)
    # 200 pooled samples: the median sits between the first two passes
    # and p95 in the third pass's tail, which no single pass median is.
    assert summary["latency_p50_ms"] == pytest.approx(2.0)
    assert summary["latency_p95_ms"] == pytest.approx(10.0)
    assert summary["throughput_items_s"] == 20.0
    assert summary["harness.samples"] == 200
    assert math.isclose(summary["setup_s"], 0.2)


def test_peak_rss_restarts_from_what_is_resident_now():
    me = [os.getpid()]
    ballast = np.ones(64 << 17)  # 64 MiB, touched
    assert peak_rss_mib(me) >= 64.0
    del ballast
    trim_heap()
    reset_peak_rss(me)
    # The released ballast no longer counts ...
    assert peak_rss_mib(me) == pytest.approx(resident_mib(), abs=2.0)
    before = peak_rss_mib(me)
    ballast = np.ones(32 << 17)
    del ballast
    # ... and a transient allocation of the measured phase does.
    assert peak_rss_mib(me) >= before + 30.0
    assert resident_mib() < before + 8.0
