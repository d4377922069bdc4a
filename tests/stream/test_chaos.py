"""The crash-mid-ingest drill must recover to byte-identical state."""

import pytest

from repro.stream import (
    StreamChaosReport,
    StreamPipeline,
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

    @pytest.mark.parametrize("kill_batch", [5, 99])
    def test_a_kill_point_past_batches_minus_two_is_refused(
        self, experiment, tmp_path, kill_batch, monkeypatch
    ):
        """6 batches: the torn segment at ``kill_batch + 1`` must be
        regenerated, so the kill lands by batch 4.  A later one used to
        be moved to batch 4 without a word."""

        def run(*_):
            raise AssertionError("a pipeline ran before the kill was refused")

        monkeypatch.setattr(StreamPipeline, "run", run)
        with pytest.raises(ValueError, match=f"batches - 2 = 4, got {kill_batch}"):
            run_stream_chaos(
                experiment, tmp_path, drill_config(), kill_batch=kill_batch
            )

    def test_too_few_batches_rejected(self, experiment, tmp_path):
        with pytest.raises(ValueError, match="at least 3"):
            run_stream_chaos(
                experiment, tmp_path, StreamRunConfig(batches=2)
            )
