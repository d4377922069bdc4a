"""The pool workload runner: deterministic, worker-pool-scoped metrics."""

from repro.obs import run_pool_workload


class TestPoolWorkload:
    def test_two_runs_are_byte_identical(self):
        first_registry, first_lines = run_pool_workload(seed=0, requests=48)
        second_registry, second_lines = run_pool_workload(seed=0, requests=48)
        assert first_registry.snapshot() == second_registry.snapshot()
        assert first_lines == second_lines

    def test_per_worker_served_gauges_present(self):
        registry, _ = run_pool_workload(seed=0, requests=48)
        snapshot = registry.snapshot()
        workers = [
            key
            for key in snapshot
            if key.startswith("pool.worker.served{")
        ]
        assert len(workers) == 2
        assert sum(snapshot[key] for key in workers) == 48

    def test_scrub_metrics_surface(self):
        registry, _ = run_pool_workload(seed=0, requests=48)
        snapshot = registry.snapshot()
        # 64 idle ticks of 4 pages: each fact is counted once, by one name.
        assert snapshot["pool.idle_scrub_ticks"] == 64
        assert snapshot["store.scrub_pages"] == 256
        assert [key for key in snapshot if "scrub" in key] == [
            "pool.idle_scrub_ticks",
            "store.scrub_pages",
        ]
        assert snapshot["pool.requests"] == 48

    def test_summary_lines_report_counts(self):
        _, lines = run_pool_workload(seed=0, requests=48)
        assert any("48 submitted" in line for line in lines)
        assert any(line.startswith("workers:") for line in lines)

    def test_seed_changes_traffic(self):
        first, _ = run_pool_workload(seed=0, requests=48)
        second, _ = run_pool_workload(seed=1, requests=48)
        assert first.snapshot() != second.snapshot()
