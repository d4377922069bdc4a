"""Kill-drill tests: exactly-once under SIGKILL, byte-identical reruns."""

import pytest

from repro.serving import ChaosConfig, ChaosReport, run_kill_drill


def drill_config(**overrides):
    """A drill small enough for CI but with two real kills."""
    base = dict(
        requests=80,
        workers=3,
        kill_at=(20, 50),
        kill_workers=(0, 1),
        seed=0,
    )
    base.update(overrides)
    return ChaosConfig(**base)


class TestKillDrill:
    def test_drill_recovers_with_two_kills(self, store_dir):
        report = run_kill_drill(store_dir, list(range(20)), drill_config())
        assert report.ok
        assert report.kills == 2
        assert report.exactly_once
        assert report.duplicates == 0
        assert report.operational["worker_deaths"] >= 2
        assert report.operational["worker_restarts"] >= 2
        assert report.outcomes.get("failed", 0) == 0
        assert sum(report.outcomes.values()) == 80

    def test_transcript_is_byte_identical_across_runs(self, store_dir):
        items = list(range(20))
        first = run_kill_drill(store_dir, items, drill_config())
        second = run_kill_drill(store_dir, items, drill_config())
        assert first.lines() == second.lines()
        assert first.ok and second.ok

    def test_transcript_never_names_workers(self, store_dir):
        """Worker identity and replay status are timing-dependent —
        the byte-diffable surface must not leak them."""
        report = run_kill_drill(store_dir, list(range(20)), drill_config())
        for line in report.transcript:
            assert "worker" not in line
            assert "replay" not in line

    def test_detail_lines_carry_operational_counters(self, store_dir):
        report = run_kill_drill(store_dir, list(range(20)), drill_config())
        detail = "\n".join(report.detail_lines())
        assert "worker_deaths" in detail
        assert "replays" in detail

    def test_different_seeds_differ(self, store_dir):
        items = list(range(20))
        first = run_kill_drill(store_dir, items, drill_config(seed=0))
        second = run_kill_drill(store_dir, items, drill_config(seed=1))
        assert first.transcript != second.transcript


class TestValidation:
    def test_kill_lists_must_pair_up(self):
        with pytest.raises(ValueError):
            ChaosConfig(kill_at=(10,), kill_workers=(0, 1))

    def test_kills_need_two_workers(self):
        with pytest.raises(ValueError):
            ChaosConfig(workers=1, kill_at=(10,), kill_workers=(0,))

    def test_a_repeated_kill_index_is_refused(self):
        """``serve chaos --requests 2 --kills 3`` schedules (0, 1, 1): two
        kills at one index would collapse into one that fires."""
        with pytest.raises(ValueError, match="repeats"):
            ChaosConfig(requests=2, kill_at=(0, 1, 1), kill_workers=(0, 1, 2))

    @pytest.mark.parametrize("index", [-1, 80])
    def test_a_kill_outside_the_requests_is_refused(self, index):
        with pytest.raises(ValueError, match=r"\[0, 80\)"):
            drill_config(kill_at=(20, index))

    @pytest.mark.parametrize("worker", [-1, 3])
    def test_a_kill_of_a_missing_worker_is_refused(self, worker):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            drill_config(kill_workers=(0, worker))

    def test_the_edges_of_every_range_are_accepted(self):
        config = drill_config(kill_at=(0, 79), kill_workers=(0, 2))
        assert config.kill_at == (0, 79)

    def test_report_fails_without_detected_deaths(self):
        report = ChaosReport(
            requests=4,
            workers=2,
            kills=1,
            outcomes={"ok": 4},
            transcript=[],
            exactly_once=True,
            duplicates=0,
            operational={"worker_deaths": 0},
        )
        assert not report.ok
        assert report.lines()[-1] == "drill: FAILED"
