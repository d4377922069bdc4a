"""Tests for the seeded open-loop load generator."""

import pytest

from repro.reliability import (
    AdmissionConfig,
    GatewayConfig,
    LoadTestConfig,
    PKGMGateway,
    PROFILES,
    StepClock,
    run_loadtest,
)


def make_gateway(server, seed=0, rate=60.0):
    return PKGMGateway(
        [server] * 2,
        GatewayConfig(
            deadline_budget=0.25,
            hedge_after=0.05,
            admission=AdmissionConfig(rate=rate, burst=16.0, queue_capacity=16),
        ),
        clock=StepClock(),
        seed=seed,
    )


class TestProfiles:
    def test_shapes(self):
        assert PROFILES["sustained"](0.1) == 1.0
        assert PROFILES["ramp"](0.0) == pytest.approx(0.2)
        assert PROFILES["ramp"](1.0) == pytest.approx(2.0)
        assert PROFILES["spike"](0.5) == 8.0
        assert PROFILES["spike"](0.1) == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadTestConfig(profile="tsunami")
        with pytest.raises(ValueError):
            LoadTestConfig(requests=0)
        with pytest.raises(ValueError):
            LoadTestConfig(base_rate=0.0)
        with pytest.raises(ValueError):
            LoadTestConfig(drain_at=1.0)


class TestRunLoadtest:
    def test_spike_sheds_without_raising(self, server):
        config = LoadTestConfig(
            profile="spike", requests=400, base_rate=120.0, seed=3
        )
        report = run_loadtest(make_gateway(server, seed=3), [0, 1, 2], config)
        assert report.completed == 400  # exactly-once, no exceptions
        assert report.shed > 0  # the spike must be absorbed by shedding
        assert report.ok > 0
        assert 0.0 < report.goodput < 1.0
        assert report.shed_rate == pytest.approx(report.shed / 400)

    def test_accepted_p99_within_deadline(self, server):
        config = LoadTestConfig(profile="spike", requests=400, base_rate=120.0)
        report = run_loadtest(make_gateway(server), [0, 1, 2], config)
        assert report.p50_latency <= report.p99_latency
        assert report.p99_latency <= 0.25  # the configured deadline budget

    def test_mid_run_drain_and_swap(self, server):
        config = LoadTestConfig(
            profile="sustained", requests=200, base_rate=80.0, drain_at=0.5
        )
        report = run_loadtest(make_gateway(server), [0, 1, 2], config)
        assert report.drains == 2  # mid-run + final
        assert report.swaps == 1
        assert report.completed == 200

    def test_no_drain_when_disabled(self, server):
        config = LoadTestConfig(
            profile="sustained", requests=100, base_rate=80.0, drain_at=None
        )
        report = run_loadtest(make_gateway(server), [0, 1, 2], config)
        assert report.drains == 1  # only the final flush
        assert report.swaps == 0

    def test_byte_identical_reports_across_runs(self, server):
        config = LoadTestConfig(profile="spike", requests=300, base_rate=100.0)
        first = run_loadtest(make_gateway(server, seed=11), [0, 1, 2], config)
        second = run_loadtest(make_gateway(server, seed=11), [0, 1, 2], config)
        assert first.as_rows() == second.as_rows()
        assert first == second

    def test_different_seed_changes_traffic(self, server):
        base = LoadTestConfig(profile="spike", requests=300, base_rate=100.0, seed=0)
        other = LoadTestConfig(profile="spike", requests=300, base_rate=100.0, seed=1)
        first = run_loadtest(make_gateway(server, seed=0), [0, 1, 2], base)
        second = run_loadtest(make_gateway(server, seed=0), [0, 1, 2], other)
        assert first.as_rows() != second.as_rows()

    def test_ramp_profile_runs(self, server):
        config = LoadTestConfig(profile="ramp", requests=200, base_rate=100.0)
        report = run_loadtest(make_gateway(server), [0, 1, 2], config)
        assert report.completed == 200
        assert report.duration > 0

    def test_empty_catalog_rejected(self, server):
        with pytest.raises(ValueError):
            run_loadtest(make_gateway(server), [], LoadTestConfig(requests=10))

    def test_report_rates_defined_when_empty(self):
        from repro.reliability import LoadTestReport

        report = LoadTestReport(
            profile="spike",
            requests=0,
            completed=0,
            ok=0,
            shed=0,
            degraded_backend=0,
            deadline_misses=0,
            hedges_sent=0,
            hedge_wins=0,
            drains=0,
            swaps=0,
            p50_latency=0.0,
            p99_latency=0.0,
            duration=0.0,
        )
        assert report.goodput == 0.0
        assert report.shed_rate == 0.0
        assert report.hedge_win_rate == 0.0
