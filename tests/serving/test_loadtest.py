"""Pool loadtest tests: every request accounted, deterministic fallback."""

from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    PoolConfig,
    ServeLoadConfig,
    ServeLoadReport,
    Supervisor,
    run_serve_loadtest,
)


def run_once(store_dir, item_ids):
    pool = Supervisor(
        store_dir,
        PoolConfig(num_workers=2, max_batch=4, cache_pages=8),
        registry=MetricsRegistry(),
    )
    pool.start()
    try:
        return run_serve_loadtest(
            pool,
            item_ids,
            ServeLoadConfig(requests=60, window=8),
            timer=None,  # virtual stamps: fully deterministic
        )
    finally:
        pool.shutdown()


class TestLoadtest:
    def test_every_request_is_answered(self, store_dir, item_ids):
        report = run_once(store_dir, item_ids)
        assert report.requests == 60
        assert report.ok + report.degraded == 60
        assert report.degraded == 0  # the loadtest asks for no unknown id
        assert report.batches > 0
        assert report.mean_batch >= 1.0

    def test_unknown_ids_count_as_degraded(self, store_dir, item_ids):
        """Serve requests draw from ``item_ids``: ids past the store's
        entities answer degraded."""
        unknown = [10**6 + i for i in range(len(item_ids))]
        report = run_once(store_dir, list(item_ids) + unknown)
        assert report.ok + report.degraded == 60
        assert report.degraded > 0

    def test_outcome_accounting_is_deterministic(self, store_dir, item_ids):
        """Same seed, same outcome counts — latency percentiles are
        measurements (they depend on real arrival order) and are
        deliberately left out of the comparison."""
        first = run_once(store_dir, item_ids)
        second = run_once(store_dir, item_ids)
        assert (first.requests, first.ok, first.degraded) == (
            second.requests,
            second.ok,
            second.degraded,
        )

    def test_report_rows_render(self):
        report = ServeLoadReport(
            requests=10,
            ok=10,
            degraded=0,
            elapsed=0.5,
            qps=20.0,
            p50=0.001,
            p99=0.002,
            batches=5,
            mean_batch=2.0,
        )
        rows = report.as_rows()
        assert any("10 requests" in row for row in rows)
        assert any("qps" in row for row in rows)
