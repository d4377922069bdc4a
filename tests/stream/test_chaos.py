"""The crash-mid-ingest drill must recover to byte-identical state."""

import pytest

from repro.stream import (
    StreamChaosReport,
    StreamRunConfig,
    run_stream_chaos,
)


def drill_config():
    return StreamRunConfig(batches=6, publish_every=3)


class TestStreamChaos:
    def test_drill_recovers_byte_identical(self, experiment, tmp_path):
        report = run_stream_chaos(
            experiment, tmp_path, drill_config(), kill_batch=2
        )
        assert isinstance(report, StreamChaosReport)
        assert report.ok
        assert report.mismatched == ()
        assert report.metrics_match
        assert report.transcript_match
        assert report.recovered.replayed_batches > 0
        assert report.files_compared > 10

    def test_transcript_is_deterministic_across_drills(
        self, experiment, tmp_path
    ):
        first = run_stream_chaos(
            experiment, tmp_path / "a", drill_config(),
            kill_batch=2,
        )
        second = run_stream_chaos(
            experiment, tmp_path / "b", drill_config(),
            kill_batch=2,
        )
        assert first.lines() == second.lines()
        assert first.lines()[-1] == "stream drill: RECOVERED"

    def test_kill_point_is_clamped_into_range(self, experiment, tmp_path):
        report = run_stream_chaos(
            experiment, tmp_path, drill_config(),
            kill_batch=99,
        )
        assert report.ok

    def test_too_few_batches_rejected(self, experiment, tmp_path):
        with pytest.raises(ValueError, match="at least 3"):
            run_stream_chaos(
                experiment, tmp_path, StreamRunConfig(batches=2)
            )
