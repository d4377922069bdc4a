"""Retrieval under catalog churn: ``DeltaIndex`` writes beside IVF reads.

The index is an ``IVFFlatIndex`` (L1, 32 lists, 8 probed) built by
seeded k-means over 2 048 clustered vectors — that build is the
set-up — wrapped in a ``DeltaIndex``.  k-means is capped at 10 Lloyd
rounds, fewer than it needs to converge on this data, so a build or a
re-cluster does the same work whatever vectors it is given.  One operation is one churn
round: insert 128 new vectors, tombstone 128 live ones, update 32 in
place, run ``maintenance()``, then search 24 queries for their 10
nearest.  Inserts equal deletes, so the live set stays at 2 048 however
long the run lasts, and compactions recur on the tombstone ratio.
Every 64th operation the operator re-clusters (``recluster()``, seeded
k-means over the live set); those operations count like any other.
A pass always ends on that 64-operation cycle, so every pass holds the
same share of re-clusters.  (At every 32nd, 3.1 % of operations were
ten times the rest, which put the 95th percentile on the edge of a
cliff: it read 12 % apart between runs, and 6 % at every 64th.)
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.index import IVFFlatIndex
from repro.stream import DeltaIndex

from .. import oracle
from ..harness import Meter, RoundResult, StepTiming
from ..trace import Tracer
from .base import CATALOG_SEED, DIM, TracedRun, Workload, median_norm

VECTORS = 2048
CLUSTERS = 256
SPREAD = 0.3
NLIST, NPROBE = 32, 8
KMEANS_ITERS = 10
INSERTS = DELETES = 128
UPDATES = 32
QUERIES, K = 24, 10
RECLUSTER_EVERY = 64
OPS_PER_ROUND = 4


class IndexChurn(Workload):
    name = "index_churn"
    warmup_rounds = 2
    cycle_rounds = RECLUSTER_EVERY // OPS_PER_ROUND
    counter_rounds = RECLUSTER_EVERY // OPS_PER_ROUND  # one full cycle

    def generate(self) -> None:
        # The indexed corpus is the deployment, like the catalog: the
        # same in every run.  ``--seed`` draws the churn and the queries.
        rng = np.random.default_rng(CATALOG_SEED)
        self.centres = rng.standard_normal((CLUSTERS, DIM))
        self.base = self._draw(rng, VECTORS)
        self.index: Optional[DeltaIndex] = None

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        centres = self.centres[rng.integers(0, CLUSTERS, count)]
        return centres + SPREAD * rng.standard_normal((count, DIM))

    # -- set-up ---------------------------------------------------------
    def setup(self, meter: Meter) -> Dict[str, StepTiming]:
        def build() -> IVFFlatIndex:
            index = IVFFlatIndex(
                dim=DIM,
                metric="l1",
                nlist=NLIST,
                nprobe=NPROBE,
                seed=0,
                kmeans_iters=KMEANS_ITERS,
            )
            index.build(self.base, np.arange(VECTORS, dtype=np.int64))
            return index

        timing, base = meter.time_call(build)
        self.build_distance_comps = base.metrics.counter(
            "index.build.distance_computations"
        ).value
        self.index = DeltaIndex(base)
        # The benchmark's own mirror of the live set, for the exact scan.
        self.live_ids = np.arange(VECTORS, dtype=np.int64)
        self.live_vectors = self.base.copy()
        self.next_id = VECTORS
        self.ops_done = 0
        self.recalls: List[float] = []
        return {"ivf_build": timing}

    # -- rounds ---------------------------------------------------------
    def _operation(self, tracer: Optional[Tracer]) -> tuple:
        """One churn round; returns (seconds, failed)."""
        rng = self.rng(2, self.ops_done)
        index = self.index
        new_vectors = self._draw(rng, INSERTS)
        new_ids = np.arange(self.next_id, self.next_id + INSERTS, dtype=np.int64)
        slots = rng.choice(VECTORS, DELETES, replace=False)
        dead_ids = self.live_ids[slots].copy()
        # Updated rows are drawn among the survivors.
        survivors = np.setdiff1d(np.arange(VECTORS), slots)
        update_slots = rng.choice(survivors, UPDATES, replace=False)
        update_vectors = self._draw(rng, UPDATES)
        queries = self._draw(rng, QUERIES)
        recluster = self.ops_done % RECLUSTER_EVERY == RECLUSTER_EVERY - 1

        def operate():
            index.insert(new_vectors, new_ids)
            index.delete(dead_ids)
            for slot, vector in zip(update_slots, update_vectors):
                index.update(int(self.live_ids[slot]), vector)
            index.maintenance()
            if recluster:
                index.recluster()
            return index.search(queries, K)

        elapsed, (_, found) = self.timed(tracer, "op.churn", operate)

        self.live_ids[slots] = new_ids
        self.live_vectors[slots] = new_vectors
        self.live_vectors[update_slots] = update_vectors
        self.next_id += INSERTS
        self.ops_done += 1

        exact = oracle.exact_l1_top_k(self.live_vectors, self.live_ids, queries, K)
        self.recalls.append(oracle.recall_at_k(found, exact))
        failed = 0
        if found.shape != (QUERIES, K) or not oracle.only_live(found, self.live_ids):
            failed = 1
            self.fail("index_churn: a search returned a deleted id or a short row")
        return elapsed, failed

    def round(self, index: int, tracer: Optional[Tracer] = None) -> RoundResult:
        latencies: List[float] = []
        failed = 0
        for _ in range(OPS_PER_ROUND):
            elapsed, bad = self._operation(tracer)
            latencies.append(elapsed)
            failed += bad
        return RoundResult(
            busy=sum(latencies),
            latencies=latencies,
            items=len(latencies) * (INSERTS + DELETES + UPDATES + QUERIES),
            failed=failed,
        )

    def warm_up(self) -> None:
        super().warm_up()
        self.recalls.clear()  # the floor is checked on measured searches

    def finish(self) -> Dict[str, float]:
        floor = oracle.load_recall_floor()
        recall = float(np.mean(self.recalls))
        if recall < floor:
            self.fail_pass(
                f"index_churn: recall@{K} {recall:.4f} is below the floor {floor:.4f}"
            )
        return {"recall_at_10": recall}

    # -- tracing --------------------------------------------------------
    def register_spans(self, tracer: Tracer) -> None:
        sized = {
            "insert": lambda args, kwargs, result: len(args[1]),
            "delete": lambda args, kwargs, result: len(args[0]),
            "search": lambda args, kwargs, result: len(args[0]),
        }
        for method in (
            "insert",
            "delete",
            "update",
            "maintenance",
            "recluster",
            "search",
        ):
            tracer.wrap(
                self.index,
                method,
                f"stream.index_delta.{method}",
                units=sized.get(method),
            )

    def counters(self) -> Dict[str, float]:
        # A re-cluster swaps in a rebuilt index that shares the registry.
        registry = self.index.index.metrics
        return {
            "index.search.distance_computations": registry.counter(
                "index.search.distance_computations"
            ).value,
            "index.search.queries": registry.counter("index.search.queries").value,
            "reclusters": self.index.recluster_count,
        }

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        queries = run.counters.get("index.search.queries", 0)
        maintenance = run.seconds("stream.index_delta.maintenance") + run.seconds(
            "stream.index_delta.recluster"
        )
        calls = run.self_times.get("stream.index_delta.maintenance")
        return {
            "index.kmeans.build_s": median_norm(run.setup["ivf_build"]),
            "index.build.distance_comps": float(self.build_distance_comps),
            "index.ivf.search_us_per_query": run.per(
                "stream.index_delta.search", "units"
            ),
            "index.ivf.distance_comps_per_query": (
                run.counters.get("index.search.distance_computations", 0) / queries
                if queries
                else 0.0
            ),
            "index.recall_at_10": float(np.mean(self.recalls)),
            "stream.index_delta.insert_us_per_vec": run.per(
                "stream.index_delta.insert", "units"
            ),
            "stream.index_delta.delete_us_per_id": run.per(
                "stream.index_delta.delete", "units"
            ),
            "stream.index_delta.update_us": run.per(
                "stream.index_delta.update", "calls"
            ),
            # Seconds per operation in maintenance(), scheduled
            # re-clusters included.
            "stream.index_delta.maintenance_s": (
                maintenance / calls.calls if calls else 0.0
            ),
            "stream.index_delta.reclusters": float(run.counters.get("reclusters", 0)),
        }
