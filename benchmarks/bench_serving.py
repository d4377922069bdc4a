"""Supervised worker pool — multi-process QPS scaling and tail latency.

Measures what the serving tier (repro.serving) buys over one process:

* **in-proc baseline** — the same seeded workload answered by direct
  ``PKGMServer`` calls in this process (no sockets, no batching);
* **pool scaling** — the supervised pool at 1, 2, and 4 workers, with
  the coalescer batching concurrent requests into the fused kernels;
  QPS and p50/p99 latency come from ``run_serve_loadtest`` driving the
  pool open-loop under a bounded window.

The workload is retrieval-heavy (nearest-tails dominates compute) so
worker parallelism has real work to spread.  Each pool gets a small
warmup pass first: a worker builds its lazy tail index on its first
retrieval, and that one-time cost belongs to cold start, not steady
state.  Wall time is real cost here, so ``time.perf_counter`` is fine —
benchmarks live outside the virtual-clock packages lint rule R007
covers.
"""

import os
import time

import numpy as np

from repro.serving import (
    PoolConfig,
    ServeLoadConfig,
    Supervisor,
    run_serve_loadtest,
)

SEED = 0
WORKER_COUNTS = (1, 2, 4)
REQUESTS = 600
WINDOW = 32
WARMUP_REQUESTS = 64
MIX = dict(serve_prob=0.1, exist_prob=0.1)  # remainder: nearest-tails
K = 10


def _measure_inproc(server, item_ids):
    """Direct in-process calls: the no-pool reference point."""
    rng = np.random.default_rng(SEED)
    num_entities = server.num_entities
    latencies = []
    started = time.perf_counter()
    for _ in range(REQUESTS):
        draw = float(rng.random())
        call_started = time.perf_counter()
        if draw < MIX["serve_prob"]:
            server.serve(int(item_ids[int(rng.integers(0, len(item_ids)))]))
        elif draw < MIX["serve_prob"] + MIX["exist_prob"]:
            server.relation_existence_score(
                int(rng.integers(0, num_entities)), 0
            )
        else:
            server.nearest_tails(int(rng.integers(0, num_entities)), 0, k=K)
        latencies.append(time.perf_counter() - call_started)
    elapsed = time.perf_counter() - started
    p50, p99 = np.percentile(latencies, [50, 99])
    return {
        "qps": REQUESTS / elapsed,
        "p50_ms": float(p50) * 1e3,
        "p99_ms": float(p99) * 1e3,
    }


def _measure_pool(store_dir, item_ids, workers):
    pool = Supervisor(
        store_dir,
        # A group flushes two arrivals after it opens (see
        # repro.serving.loadtest.drive).
        PoolConfig(num_workers=workers, max_batch=8, max_delay=0.0025),
    )
    pool.start()
    try:
        run_serve_loadtest(  # warmup: lazy tail-index builds per worker
            pool,
            item_ids,
            ServeLoadConfig(requests=WARMUP_REQUESTS, window=WINDOW, **MIX),
            timer=time.perf_counter,
        )
        report = run_serve_loadtest(
            pool,
            item_ids,
            ServeLoadConfig(
                requests=REQUESTS, window=WINDOW, seed=SEED, k=K, **MIX
            ),
            timer=time.perf_counter,
        )
    finally:
        pool.shutdown()
    return report


def test_serving_pool_scaling(benchmark, record_table, workbench, tmp_path):
    server = workbench.server
    store_dir = tmp_path / "store"
    server.save_store(store_dir, num_shards=4, page_bytes=4096).close()
    item_ids = server.known_items()
    results = {}

    def sweep():
        results["inproc"] = _measure_inproc(server, item_ids)
        for workers in WORKER_COUNTS:
            results[workers] = _measure_pool(store_dir, item_ids, workers)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    inproc = results["inproc"]
    lines = [
        "Supervised worker pool — QPS scaling and tail latency "
        f"({REQUESTS} requests, retrieval-heavy mix "
        f"{int((1 - MIX['serve_prob'] - MIX['exist_prob']) * 100)}% "
        f"nearest-tails k={K}, window {WINDOW}, seed {SEED}, "
        f"{os.cpu_count()} cpu cores)",
        "config | qps | p50 ms | p99 ms | speedup vs in-proc",
        f"in-proc | {inproc['qps']:.0f} | {inproc['p50_ms']:.2f} | "
        f"{inproc['p99_ms']:.2f} | 1.00x",
    ]
    for workers in WORKER_COUNTS:
        report = results[workers]
        lines.append(
            f"pool w={workers} | {report.qps:.0f} | {report.p50 * 1e3:.2f} | "
            f"{report.p99 * 1e3:.2f} | {report.qps / inproc['qps']:.2f}x"
        )
    best = max(results[w].qps for w in WORKER_COUNTS)
    single = results[1].qps
    lines.append(
        f"acceptance: every config answered {REQUESTS}/{REQUESTS}; best "
        f"config reached {best / single:.2f}x the 1-worker pool (worker "
        f"parallelism only pays past 1 cpu core; on a 1-core box extra "
        f"workers add IPC cost and the scaling column reads as overhead)"
    )
    record_table("serving_pool_scaling", lines)

    for workers in WORKER_COUNTS:
        report = results[workers]
        assert report.ok + report.degraded == REQUESTS
    assert best >= single  # more workers never lose to one
