"""Prometheus exposition: every exported name is one family, typed once."""

import pytest

from repro.obs import (
    MetricsRegistry,
    run_metrics_workload,
    run_pool_workload,
    run_trace_workload,
    to_prometheus,
)


def typed_names(text):
    return [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")]


class TestFamilies:
    def test_names_that_sanitise_to_one_family_are_refused(self):
        registry = MetricsRegistry()
        registry.counter("store.bytes_read").inc()
        registry.counter("store.bytes.read").inc()
        with pytest.raises(ValueError, match="'store_bytes_read'"):
            to_prometheus(registry)

    @pytest.mark.parametrize(
        "workload",
        [
            lambda: run_metrics_workload(seed=0, requests=150)[0],
            lambda: run_pool_workload(seed=0, requests=48)[0],
            lambda: run_trace_workload(seed=0, epochs=1)[0],
        ],
        ids=["metrics", "pool", "trace"],
    )
    def test_every_workload_types_each_family_once(self, workload):
        names = typed_names(to_prometheus(workload()))
        assert names
        assert len(names) == len(set(names))
