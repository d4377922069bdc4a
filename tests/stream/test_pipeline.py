"""The ingest loop: run, resume, replay, publish, metrics."""

import json

import pytest

from repro.stream import StreamPipeline, StreamReport, StreamRunConfig


def small_config(**overrides):
    defaults = dict(batches=6, publish_every=3)
    defaults.update(overrides)
    return StreamRunConfig(**defaults)


class TestRun:
    def test_run_produces_report_and_versions(self, experiment, tmp_path):
        pipeline = StreamPipeline(experiment, tmp_path, small_config())
        report = pipeline.run()
        assert isinstance(report, StreamReport)
        assert report.batches == 6
        assert report.replayed_batches == 0
        assert report.publishes == 2
        assert pipeline.versioner.current_version() == 1
        assert (tmp_path / "CURRENT").read_text().strip() == "v000001"

    def test_replay_is_byte_identical(self, experiment, tmp_path):
        first = StreamPipeline(experiment, tmp_path, small_config())
        first_report = first.run()
        second = StreamPipeline(experiment, tmp_path, small_config())
        second_report = second.run()
        assert second_report.replayed_batches == 6
        assert first_report.lines() == second_report.lines()
        assert first.metrics_dump() == second.metrics_dump()
        assert first.state.checksum() == second.state.checksum()

    def test_partial_run_resumes_from_log(self, experiment, tmp_path):
        partial = StreamPipeline(experiment, tmp_path, small_config())
        partial.run(4)
        resumed = StreamPipeline(experiment, tmp_path, small_config())
        report = resumed.run()
        clean = StreamPipeline(
            experiment, tmp_path / "clean", small_config()
        ).run()
        assert report.replayed_batches == 4
        assert report.lines() == clean.lines()

    def test_two_directories_same_seed_match(self, experiment, tmp_path):
        a = StreamPipeline(experiment, tmp_path / "a", small_config()).run()
        b = StreamPipeline(experiment, tmp_path / "b", small_config()).run()
        assert a.lines() == b.lines()

    def test_published_snapshot_serves_stream_born_items(
        self, experiment, tmp_path
    ):
        pipeline = StreamPipeline(experiment, tmp_path, small_config())
        pipeline.run()
        version = pipeline.versioner.current_version()
        server = pipeline.versioner.load_server(version)
        base = pipeline.state.base_entity_count
        stream_born = [
            item for item in server.known_items() if item >= base
        ]
        assert stream_born  # churn created servable new listings
        vectors = server.serve(stream_born[0])
        assert vectors.triple_vectors.shape == (
            experiment.key_relations,
            pipeline.dim,
        )

    def test_report_lines_hide_replay_provenance(self, experiment, tmp_path):
        pipeline = StreamPipeline(experiment, tmp_path, small_config())
        report = pipeline.run()
        assert all("replay" not in line for line in report.lines())


class TestMetrics:
    def test_metrics_dump_is_stream_scoped_json(self, experiment, tmp_path):
        pipeline = StreamPipeline(experiment, tmp_path, small_config())
        pipeline.run()
        dump = json.loads(pipeline.metrics_dump())
        assert dump
        assert all(key.startswith("stream.") for key in dump)
        assert dump["stream.batches"] == 6

    def test_staleness_gauges_reset_on_publish(self, experiment, tmp_path):
        pipeline = StreamPipeline(
            experiment, tmp_path, small_config(batches=3, publish_every=3)
        )
        pipeline.run()
        snapshot = pipeline.metrics.snapshot()
        assert snapshot["stream.staleness.ops_since_publish"] == 0
        assert snapshot["stream.staleness.batches_since_publish"] == 0

    def test_ops_counters_sum_to_report_ops(self, experiment, tmp_path):
        pipeline = StreamPipeline(experiment, tmp_path, small_config())
        report = pipeline.run()
        snapshot = pipeline.metrics.snapshot()
        counted = sum(
            value
            for key, value in snapshot.items()
            if key.startswith("stream.ops{")
        )
        assert counted == report.ops


class TestValidation:
    def test_bad_batches_rejected(self):
        with pytest.raises(ValueError):
            StreamRunConfig(batches=0)

    def test_bad_publish_every_rejected(self):
        with pytest.raises(ValueError):
            StreamRunConfig(publish_every=0)
