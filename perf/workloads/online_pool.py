"""Online service requests through the supervised worker pool.

One generator keeps at most ``window`` requests outstanding against a
:class:`~repro.serving.Supervisor` with one forked worker (generator +
worker = the box's two cores), mixing 60 % ``serve``, 30 % ``exist``
and 10 % ``retrieve`` — the ``run_serve_loadtest`` idiom, closed loop.
A request is timed from just before ``submit`` to its terminal
response.  ``repro.serving`` (frame codec, coalescer, supervisor loop,
worker dispatch) dominates, and the store sees a handful of point
reads per request instead of the thousands of rows a bulk batch
gathers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.serving.supervisor as supervisor_module
from repro.core import PKGMServer
from repro.serving import PoolConfig, Supervisor, payload_checksum, run_batch
from repro.serving import protocol

from .. import oracle
from ..harness import Meter, RoundResult, StepTiming, trim_heap
from ..trace import Tracer
from .base import TracedRun, Workload, median_norm
from .bulk import (
    build_catalog,
    cold_open,
    serve_single_us,
    build_resident,
    store_counters,
    store_layer_metrics,
    wrap_store,
)

SERVE_SHARE, EXIST_SHARE = 0.6, 0.3  # the rest retrieves
#: Requests of the recorded traffic replayed through the direct drives.
REPLAY_REQUESTS = 1024


class OnlinePool(Workload):
    name = "online_pool"
    products_per_category = 120
    requests_per_round = 128  # ~100 ms
    window = 16
    tick = 0.001  # virtual seconds between arrivals
    k = 10
    config = PoolConfig(num_workers=1, max_batch=8, max_delay=0.002, cache_pages=64)

    def generate(self) -> None:
        self.resident: Optional[PKGMServer] = None
        reference = self._reference()
        self.items = np.asarray(reference.known_items(), dtype=np.int64)
        self.num_entities = reference.num_entities
        self.num_relations = reference.num_relations
        self.pool: Optional[Supervisor] = None
        #: (kind, entity, relation, checksum) of every ok response, for
        #: the end-of-pass comparison with the resident server.
        self.answers: List[Tuple[str, int, int, int]] = []
        self.frames: List[tuple] = []

    def _reference(self) -> PKGMServer:
        """The resident server the store is written from, which is also
        the oracle's reference; rebuilt from the seed once released."""
        if self.resident is None:
            catalog = build_catalog(self.products_per_category)
            self.resident, _ = build_resident(catalog, self.rng(1))
        return self.resident

    # -- set-up ---------------------------------------------------------
    def _start(self) -> Supervisor:
        pool = Supervisor(self.store_dir, self.config)
        pool.start()
        return pool

    def setup(self, meter: Meter) -> Dict[str, StepTiming]:
        self.close()
        self.store_dir = self.fresh_dir() / "store"
        save, _ = meter.time_call(
            lambda: self._reference()
            .save_store(self.store_dir, num_shards=4, page_bytes=4096)
            .close()
        )
        started, self.pool = meter.time_call(self._start)
        return {"save_store": save, "pool_start": started}

    def release(self) -> None:
        self.close()
        self.resident = None
        trim_heap()

    def warm_up(self) -> None:
        # A forked worker's resident set starts as its parent's, so the
        # pool that is measured is started here, over the store set-up
        # wrote last, by a process that has released the reference model.
        self.pool = self._start()
        super().warm_up()

    def child_pids(self) -> List[int]:
        return [pid for pid in self.pool.worker_pids() if pid is not None]

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
        self.pool = None

    # -- rounds ---------------------------------------------------------
    def _requests(self, index: int, count: int) -> List[Tuple[str, int, int]]:
        # The same share of each kind in every round, in a drawn order:
        # a retrieval costs ten times a serve, so a drawn mix would make
        # rounds, passes and seeds differ in how much work they hold.
        rng = self.rng(2, index)
        serves = round(SERVE_SHARE * count)
        exists = round(EXIST_SHARE * count)
        kinds = np.repeat(
            ["serve", "exist", "retrieve"], [serves, exists, count - serves - exists]
        )
        item_picks = self.items[rng.integers(0, len(self.items), count)]
        entity_picks = rng.integers(0, self.num_entities, count)
        relations = rng.integers(0, self.num_relations, count)
        return [
            (str(kind), int(item if kind == "serve" else entity), int(relation))
            for kind, item, entity, relation in zip(
                rng.permutation(kinds), item_picks, entity_picks, relations
            )
        ]

    def round(self, index: int, tracer: Optional[Tracer] = None) -> RoundResult:
        pool, now = self.pool, self.clock
        submitted: Dict[int, float] = {}
        latencies: List[float] = []
        kinds: List[str] = []
        failed = 0

        def collect(responses) -> None:
            nonlocal failed
            stamp = now()
            for response in responses:
                latencies.append(stamp - submitted.pop(response.request_id))
                kinds.append(response.kind)
                if response.ok:
                    self.answers.append(
                        (
                            response.kind,
                            response.entity_id,
                            response.relation,
                            response.checksum,
                        )
                    )
                else:
                    failed += 1
                    self.fail(
                        f"online_pool: {response.kind} request answered "
                        f"{response.outcome!r}"
                    )

        started = now()
        for kind, entity, relation in self._requests(index, self.requests_per_round):
            pool.clock.advance(self.tick)
            stamp = now()
            request_id = pool.submit(kind, entity, relation=relation, k=self.k)
            submitted[request_id] = stamp
            pool.pump()
            collect(pool.responses())
            while pool.outstanding() > self.window:
                pool.wait_any()
                collect(pool.responses())
        collect(pool.drain())
        busy = now() - started
        return RoundResult(
            busy=busy,
            latencies=latencies,
            items=len(latencies),
            failed=failed,
            kinds=kinds,
        )

    def finish(self) -> Dict[str, float]:
        reference = self._reference()
        wrong = 0
        for kind, entity, relation, checksum in self.answers:
            expected = payload_checksum(
                kind,
                oracle.reference_payload(reference, kind, entity, relation, self.k),
            )
            wrong += checksum != expected
        if wrong:
            self.fail_pass(
                f"online_pool: {wrong} of {len(self.answers)} responses differ "
                "from the resident server's bytes",
                count=wrong,
            )
        return {}

    # -- tracing --------------------------------------------------------
    def register_spans(self, tracer: Tracer) -> None:
        for method in ("submit", "pump", "wait_any", "drain"):
            tracer.wrap(self.pool, method, f"serving.supervisor.{method}")
        # The supervisor looks these up in its own module namespace.
        tracer.wrap(
            supervisor_module,
            "send_frame",
            "serving.protocol.send_frame",
            tap=lambda args, kwargs, result: self.frames.append(args[1]),
        )
        tracer.wrap(
            supervisor_module,
            "recv_frame",
            "serving.protocol.recv_frame",
            tap=lambda args, kwargs, result: self.frames.append(result),
        )

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        batches, results, requests = self._replay_set()
        metrics: Dict[str, float] = {}

        # Codec: encode + decode of the frames the traced rounds moved.
        sizes: List[int] = []

        def codec() -> None:
            for message in batches + results:
                body = protocol.encode(message)
                sizes.append(len(body))
                protocol.decode(body)

        timing, _ = run.meter.time_call(codec)
        metrics["serving.protocol.codec_us_per_req"] = timing.norm / requests * 1e6
        metrics["serving.protocol.bytes_per_req"] = sum(sizes) / requests

        # Worker compute: the same batches through the kernels the
        # worker calls, on a server opened the way the worker opens it.
        wrap_store(run.tracer)
        cold, server = cold_open(run, self.store_dir, self.config.cache_pages)
        try:
            first, _ = run.meter.time_call(
                lambda: server.nearest_tails(int(self.items[0]), 0, self.k)
            )
            run.tracer.wrap(
                server.tail_index,
                "search",
                "index.flat.search",
                units=lambda args, kwargs, result: len(np.atleast_2d(args[0])),
            )
            before = store_counters(server.store)
            drive = run.drive(
                lambda: [
                    run_batch(server, kind, k, items) for _, kind, k, items in batches
                ]
            )
            after = store_counters(server.store)
        finally:
            server.store.close()
        metrics["serving.worker.compute_us_per_req"] = (
            drive.drive_seconds / requests * 1e6
        )
        metrics["store.open_s"] = cold.drive_seconds
        metrics["store.first_retrieval_s"] = first.norm
        metrics.update(
            store_layer_metrics(
                drive, {key: after[key] - before[key] for key in after}, requests
            )
        )
        metrics["store.read_row_us"] = cold.per("store.read_row", "calls")
        metrics["index.flat.search_us_per_query"] = drive.per(
            "index.flat.search", "units"
        )

        metrics["core.service.serve_single_us"] = serve_single_us(
            run, self._reference(), self.items, self.rng(3)
        )

        # What the pool adds: mean service time minus what the worker
        # computes and what the codec costs.
        served = sum(m.result.items for m in run.untraced)
        busy = sum(m.result.busy * m.factor for m in run.untraced)
        metrics["serving.pool.overhead_us_per_req"] = (
            busy / served * 1e6
            - metrics["serving.worker.compute_us_per_req"]
            - metrics["serving.protocol.codec_us_per_req"]
        )

        registry = self.pool.metrics
        offered = registry.counter("coalesce.requests").value
        flushed = registry.counter("coalesce.batches").value
        metrics["serving.coalescer.mean_batch"] = offered / flushed if flushed else 0.0
        metrics["serving.pool.frames_per_req"] = (
            registry.counter("pool.batches_sent").value
            / registry.counter("pool.requests").value
        )
        for kind in ("serve", "exist", "retrieve"):
            samples = [
                latency * measured.factor
                for measured in run.untraced
                for latency, tag in zip(
                    measured.result.latencies, measured.result.kinds
                )
                if tag == kind
            ]
            metrics[f"serving.pool.{kind}_p50_ms"] = (
                float(np.percentile(samples, 50)) * 1e3 if samples else 0.0
            )
        metrics["serving.pool.start_s"] = median_norm(run.setup["pool_start"])
        metrics["store.save_s"] = median_norm(run.setup["save_store"])
        return metrics

    def _replay_set(self):
        """Recorded batch and result frames covering ~REPLAY_REQUESTS."""
        batches = [m for m in self.frames if m and m[0] == "batch"]
        results = [m for m in self.frames if m and m[0] == "results"]
        kept, requests = [], 0
        for message in batches:
            if requests >= REPLAY_REQUESTS:
                break
            kept.append(message)
            requests += len(message[3])
        wanted = {item[0] for message in kept for item in message[3]}
        kept_results = [
            message
            for message in results
            if any(result[0] in wanted for result in message[2])
        ]
        return kept, kept_results, max(requests, 1)
