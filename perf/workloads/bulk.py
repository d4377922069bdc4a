"""Offline vectorisation: ``bulk_ram`` and ``bulk_store``.

Both issue the three batch calls a downstream fine-tuning job makes
(``serve_sequence_batch``, ``serve_condensed_batch``,
``relation_existence_scores``) in rotation over uniformly drawn item
ids.  ``bulk_ram`` answers from a resident server, so only
``repro.core.service`` works; ``bulk_store`` answers through
``PKGMServer.from_store`` with a 256 KiB page cache against a ~4 MiB
entity table, so nearly every gather faults and ``repro.store``'s read
path dominates.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core import KeyRelationSelector, PKGM, PKGMConfig, PKGMServer
from repro.data import CatalogConfig, generate_catalog
from repro.store import EmbeddingStore

from .. import oracle
from ..harness import Meter, RoundResult, StepTiming, trim_heap
from ..trace import Tracer
from .base import (
    CATALOG_SEED,
    CATEGORIES,
    DIM,
    KEY_RELATIONS,
    TracedRun,
    Workload,
    median_norm,
)

CALLS = ("sequence", "condensed", "exist")
#: Positions of each batch the numpy oracle recomputes.
ORACLE_SAMPLE = 4


def build_catalog(products_per_category: int):
    return generate_catalog(
        CatalogConfig(
            num_categories=CATEGORIES,
            products_per_category=products_per_category,
            seed=CATALOG_SEED,
        )
    )


def build_resident(catalog, rng: np.random.Generator):
    """A resident server with untrained tables over ``catalog``."""
    model = PKGM(
        len(catalog.entities),
        len(catalog.relations),
        PKGMConfig(dim=DIM),
        rng=rng,
    )
    selector = KeyRelationSelector(
        catalog.store,
        {item.entity_id: item.category_id for item in catalog.items},
        k=KEY_RELATIONS,
    )
    return PKGMServer(model, selector), selector


class BulkRam(Workload):
    name = "bulk_ram"
    products_per_category = 200
    batch = 256
    rotations_per_round = 8  # 24 calls, ~80 ms
    setup_repeats = 9  # one ~30 ms step

    def generate(self) -> None:
        self.catalog = build_catalog(self.products_per_category)
        self.server: Optional[PKGMServer] = None

    # -- set-up ---------------------------------------------------------
    def _resident(self):
        return build_resident(self.catalog, self.rng(1))

    def _adopt_resident(self, server, selector) -> None:
        self.resident = server
        self.selector = selector
        self.items = np.asarray(server.known_items(), dtype=np.int64)
        self.num_relations = server.num_relations
        self.tables = (
            server.entity_table,
            server.relation_table,
            server.transfer_tensor,
        )

    def setup(self, meter: Meter) -> Dict[str, StepTiming]:
        timing, (server, selector) = meter.time_call(self._resident)
        self._adopt_resident(server, selector)
        self.server = server
        return {"build_server": timing}

    def release(self) -> None:
        # The server keeps what it needs of the catalog in its selector.
        self.catalog = None
        trim_heap()

    # -- rounds ---------------------------------------------------------
    @staticmethod
    def _call(server, kind: str, ids: np.ndarray, relations: np.ndarray):
        if kind == "sequence":
            return server.serve_sequence_batch(ids)
        if kind == "condensed":
            return server.serve_condensed_batch(ids)
        return server.relation_existence_scores(ids, relations)

    def _verify(self, kind, ids, relations, output, positions) -> bool:
        """The numpy oracle on the sampled ``positions`` of one batch."""
        ids, rows = ids[positions], output[positions]
        if kind == "exist":
            return oracle.check_existence(
                self.tables, ids, relations[positions], rows
            )
        check = (
            oracle.check_sequence if kind == "sequence" else oracle.check_condensed
        )
        return check(self.tables, ids, self.selector.for_items(ids), rows)

    def _inputs(self, index: int) -> Iterator[tuple]:
        """Round ``index``'s calls: (kind, ids, relations, the positions
        of the batch the numpy oracle recomputes)."""
        rng = self.rng(2, index)
        for _ in range(self.rotations_per_round):
            for kind in CALLS:
                ids = self.items[rng.integers(0, len(self.items), self.batch)]
                relations = rng.integers(0, self.num_relations, self.batch)
                positions = rng.integers(0, self.batch, ORACLE_SAMPLE)
                yield kind, ids, relations, positions

    def round(self, index: int, tracer: Optional[Tracer] = None) -> RoundResult:
        latencies: List[float] = []
        kinds: List[str] = []
        failed = 0
        for kind, ids, relations, positions in self._inputs(index):
            elapsed, output = self.timed(
                tracer,
                f"op.{kind}",
                lambda: self._call(self.server, kind, ids, relations),
            )
            latencies.append(elapsed)
            kinds.append(kind)
            if not self._verify(kind, ids, relations, output, positions):
                failed += 1
                self.fail(f"{self.name}: {kind} batch failed the oracle")
        return RoundResult(
            busy=sum(latencies),
            latencies=latencies,
            items=len(latencies) * self.batch,
            failed=failed,
            kinds=kinds,
        )

    # -- tracing --------------------------------------------------------
    def register_spans(self, tracer: Tracer) -> None:
        for method in (
            "serve_sequence_batch",
            "serve_condensed_batch",
            "relation_existence_scores",
            "triple_service",
            "relation_service",
        ):
            tracer.wrap(self.server, method, f"core.service.{method}")

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        def per_item(name: str, count: str) -> float:
            return run.per(f"core.service.{name}", count) / self.batch

        metrics = {
            "core.service.sequence_us_per_item": per_item(
                "serve_sequence_batch", "calls"
            ),
            "core.service.condensed_us_per_item": per_item(
                "serve_condensed_batch", "calls"
            ),
            "core.service.exist_us_per_pair": per_item(
                "relation_existence_scores", "calls"
            ),
            # Per item of the operations that reached the call: the
            # sequence and condensed payloads call both services, the
            # existence scores only the relation service.
            "core.service.triple_us_per_item": per_item("triple_service", "ops"),
            "core.service.relation_us_per_item": per_item(
                "relation_service", "ops"
            ),
        }
        metrics["core.service.serve_single_us"] = serve_single_us(
            run, self._reference(), self.items, self.rng(3)
        )
        return metrics

    def _reference(self) -> PKGMServer:
        """A resident server over this seed's tables."""
        return self.resident


class BulkStore(BulkRam):
    name = "bulk_store"
    # A quarter of bulk_ram's batch: a 256-item call takes ~100 ms here,
    # which would leave p95 with too few samples in a run.
    batch = 64
    rotations_per_round = 2  # 6 calls, ~120 ms
    setup_repeats = 3
    cache_pages = 64
    num_shards = 4
    page_bytes = 4096

    def generate(self) -> None:
        super().generate()
        self.resident: Optional[PKGMServer] = None
        self._reference()
        #: The rounds run, in order, and the digest of every output they
        #: produced: compared with the reference's bytes in finish().
        self.rounds_run: List[int] = []
        self.digests: List[str] = []

    def _reference(self) -> PKGMServer:
        """The resident server the store is written from, which is also
        the oracle's reference; rebuilt from the seed once released."""
        if self.resident is None:
            if self.catalog is None:
                self.catalog = build_catalog(self.products_per_category)
            self._adopt_resident(*self._resident())
        return self.resident

    def release(self) -> None:
        # The measured process holds the store-backed server and nothing
        # of the model it was written from.
        self.catalog = self.resident = self.selector = self.tables = None
        trim_heap()

    def setup(self, meter: Meter) -> Dict[str, StepTiming]:
        self.close()
        directory = self.fresh_dir() / "store"
        save, _ = meter.time_call(
            lambda: self._reference().save_store(
                directory, num_shards=self.num_shards, page_bytes=self.page_bytes
            ).close()
        )
        opened, server = meter.time_call(
            lambda: PKGMServer.from_store(directory, cache_pages=self.cache_pages)
        )
        first, _ = meter.time_call(
            lambda: server.nearest_tails(int(self.items[0]), 0, 10)
        )
        self.server = server
        return {"save_store": save, "from_store": opened, "first_retrieval": first}

    def close(self) -> None:
        if self.server is not None and self.server.store is not None:
            self.server.store.close()
        self.server = None

    def round(self, index: int, tracer: Optional[Tracer] = None) -> RoundResult:
        self.rounds_run.append(index)
        return super().round(index, tracer)

    def _verify(self, kind, ids, relations, output, positions) -> bool:
        self.digests.append(oracle.array_digest(output))
        return True  # judged in finish(), against the rebuilt reference

    def finish(self) -> Dict[str, float]:
        # Same bytes as the resident server, and the resident server's
        # sampled rows agree with the numpy oracle.
        reference = self._reference()
        digests = iter(self.digests)
        wrong = 0
        for index in self.rounds_run:
            for kind, ids, relations, positions in self._inputs(index):
                expected = self._call(reference, kind, ids, relations)
                wrong += not (
                    next(digests) == oracle.array_digest(expected)
                    and super()._verify(kind, ids, relations, expected, positions)
                )
        if wrong:
            self.fail_pass(
                f"bulk_store: {wrong} of {len(self.digests)} outputs differ from "
                "the resident server's bytes or fail the numpy oracle",
                count=wrong,
            )
        return {}

    # -- tracing --------------------------------------------------------
    def register_spans(self, tracer: Tracer) -> None:
        super().register_spans(tracer)
        wrap_store(tracer)

    def counters(self) -> Dict[str, float]:
        return store_counters(self.server.store)

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        metrics = super().layer_metrics(run)
        metrics.update(store_layer_metrics(run, run.counters, run.counter_items))
        cold, reopened = cold_open(
            run, self.server.store.directory, self.cache_pages
        )
        reopened.store.close()
        metrics["store.read_row_us"] = cold.per("store.read_row", "calls")
        metrics["store.save_s"] = median_norm(run.setup["save_store"])
        metrics["store.open_s"] = median_norm(run.setup["from_store"])
        metrics["store.first_retrieval_s"] = median_norm(run.setup["first_retrieval"])
        return metrics


def serve_single_us(run: TracedRun, server, items, rng) -> float:
    """Direct ``serve(id)`` on a resident server, microseconds per call."""
    ids = items[rng.integers(0, len(items), 512)]
    timing, _ = run.meter.time_call(
        lambda: [server.serve(int(entity)) for entity in ids]
    )
    return timing.norm / len(ids) * 1e6


def wrap_store(tracer: Tracer) -> None:
    """Record the two read entry points of every ``EmbeddingStore``.

    Wrapped on the class, so a store opened while the wrappers are
    installed (a cold open) is recorded from its first read.
    """
    tracer.wrap(
        EmbeddingStore,
        "read_rows",
        "store.read_rows",
        units=lambda args, kwargs, result: np.asarray(args[2]).size,
    )
    tracer.wrap(EmbeddingStore, "read_row", "store.read_row")


def cold_open(run: TracedRun, directory, cache_pages: int):
    """Drive ``from_store`` directly; returns (what it recorded, server).

    The cold open reads the selector tables row by row, which is where
    ``read_row`` is called.
    """
    opened: list = []
    drive = run.drive(
        lambda: opened.append(
            PKGMServer.from_store(directory, cache_pages=cache_pages)
        )
    )
    return drive, opened[0]


def store_counters(store) -> Dict[str, float]:
    return {
        name: store.metrics.counter(name).value
        for name in (
            "store.page_faults",
            "store.page_hits",
            "store.bytes_read",
            "store.page_evictions",
        )
    }


def store_layer_metrics(run: TracedRun, counters, items: int) -> Dict[str, float]:
    """Store read-path self times of ``run``, and the ``store.*`` counter
    deltas ``counters`` per item of the ``items`` they were read over."""
    items = max(items, 1)
    faults = counters.get("store.page_faults", 0)
    hits = counters.get("store.page_hits", 0)
    return {
        "store.read_rows_us_per_row": run.per("store.read_rows", "units"),
        "store.read_row_us": run.per("store.read_row", "calls"),
        "store.page_faults_per_item": faults / items,
        "store.page_hit_ratio": hits / (hits + faults) if hits + faults else 0.0,
        "store.bytes_read_per_item": counters.get("store.bytes_read", 0) / items,
        "store.page_evictions_per_item": counters.get("store.page_evictions", 0)
        / items,
    }
