"""The streaming ingest pipeline: generate → log → absorb → publish.

One loop ties the subsystem together, in strict write-ahead order per
batch:

1. **generate** the batch (or *replay* it, when the delta log already
   holds a verified segment for this index — recovery and steady state
   are the same loop, not two code paths);
2. **append** it to the checksummed delta log *before* any state it
   implies is acted on;
3. **absorb** it: warm-start + continual-train new entities
   (:class:`repro.stream.continual.ContinualTrainer`), apply
   insert/update/delete to the delta-aware ANN index, run seeded
   maintenance triggers;
4. every ``publish_every`` batches, **publish** a versioned
   store+index snapshot and promote it atomically.

Crash analysis, window by window: a crash during (1) loses nothing —
the log prefix replays and the batch regenerates from its seeded RNG;
during (2) it leaves a torn tail the log scan forgives; between (2)
and (3/4) the logged batch replays through the *same* absorb path on
recovery.  Publishing is idempotent-deterministic (every payload write
is atomic and byte-stable), so re-publishing over a torn version
directory converges to identical bytes.  Because the whole metric
surface counts *absorbed* work — never file writes — a recovered run's
``stream.*`` dump is byte-identical to a never-crashed one, which is
precisely what ``repro stream chaos`` gates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..config import ExperimentConfig
from ..core import KeyRelationSelector, PKGMServer
from ..data import generate_catalog
from ..index.ivf import IVFFlatIndex
from ..obs.metrics import MetricsRegistry
from ..pipeline import untrained_server
from .continual import ContinualConfig, ContinualTrainer
from .deltas import (
    OP_NEW_ITEM,
    OP_RETIRE,
    OP_UPDATE,
    CatalogDeltaStream,
    DeltaBatch,
    DeltaLog,
    DeltaStreamConfig,
    StreamState,
)
from .index_delta import DeltaIndex
from .snapshot_swap import SnapshotVersioner


@dataclass(frozen=True)
class StreamRunConfig:
    """One stream run, end to end.

    The delta generator, the continual trainer and the delta index run
    at their default configs; the base index is an 8-list IVF probing 4.
    """

    batches: int = 12
    publish_every: int = 4

    def __post_init__(self) -> None:
        if self.batches < 1:
            raise ValueError("batches must be >= 1")
        if self.publish_every < 1:
            raise ValueError("publish_every must be >= 1")


@dataclass(frozen=True)
class StreamReport:
    """Deterministic outcome summary of one run/replay."""

    batches: int
    replayed_batches: int
    ops: int
    last_seq: int
    live_items: int
    entities: int
    publishes: int
    state_checksum: str
    warm_methods: Dict[str, int]
    index_live: int
    index_tombstones: int

    def lines(self) -> List[str]:
        """Timing-invariant stdout lines (byte-diffed by the gates).

        ``replayed_batches`` is deliberately absent: a clean run and a
        crash-recovered run differ only in how many batches came from
        the log, and the transcript must not betray that.
        """
        warm = " ".join(
            f"{name}={self.warm_methods[name]}"
            for name in sorted(self.warm_methods)
        )
        return [
            (
                f"stream: {self.batches} batches | {self.ops} ops | "
                f"last seq {self.last_seq}"
            ),
            (
                f"catalog: {self.live_items} live items | "
                f"{self.entities} entities"
            ),
            f"warmstart: {warm if warm else 'none'}",
            (
                f"index: {self.index_live} live | "
                f"{self.index_tombstones} tombstoned"
            ),
            f"published: {self.publishes} versions",
            f"state checksum: {self.state_checksum}",
        ]


class StreamPipeline:
    """Deterministic catalog-delta ingest over one run directory."""

    def __init__(
        self,
        experiment: ExperimentConfig,
        run_dir: Union[str, Path],
        config: Optional[StreamRunConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        from_checkpoint: Optional[Union[str, Path]] = None,
    ) -> None:
        self.experiment = experiment
        self.run_dir = Path(run_dir)
        self.config = config if config is not None else StreamRunConfig()
        self.metrics = registry if registry is not None else MetricsRegistry()

        if from_checkpoint is None:
            catalog, server = untrained_server(experiment)
        else:
            # Seed every table from a trained snapshot instead of the
            # untrained smoke model: the published stream snapshots then
            # serve the trained embeddings from batch zero.
            catalog = generate_catalog(experiment.catalog)
            server = PKGMServer.from_store(from_checkpoint)
            mismatches = []
            if server.num_entities != len(catalog.entities):
                mismatches.append(
                    f"entities {server.num_entities} != {len(catalog.entities)}"
                )
            if server.num_relations != len(catalog.relations):
                mismatches.append(
                    f"relations {server.num_relations} != "
                    f"{len(catalog.relations)}"
                )
            if server.k != experiment.key_relations:
                mismatches.append(
                    f"key relations k={server.k} != "
                    f"{experiment.key_relations}"
                )
            if mismatches:
                server.store.close()
                raise ValueError(
                    f"checkpoint {from_checkpoint!s} does not match the "
                    "experiment catalog: " + "; ".join(mismatches)
                )
        self.catalog = catalog
        item_to_category = {
            item.entity_id: item.category_id for item in catalog.items
        }
        self.selector = KeyRelationSelector(
            catalog.store, item_to_category, k=experiment.key_relations
        )
        # No copies: the server is dropped here, the stream only reads
        # the relation tables, and the trainer copies its entity table.
        self.dim = server.dim
        self.relation_table = np.asarray(server.relation_table, dtype=np.float64)
        self.transfer = np.asarray(server.transfer_tensor, dtype=np.float64)
        entity_table = np.asarray(server.entity_table, dtype=np.float64)
        if server.store is not None:
            server.store.close()
        self.state = StreamState.from_catalog(catalog)
        self.stream = CatalogDeltaStream(self.state, DeltaStreamConfig())
        self.log = DeltaLog(self.run_dir / "deltas")
        self.trainer = ContinualTrainer(
            entity_table, self.relation_table, ContinualConfig()
        )
        self.trainer.seed_buffer(sorted(self.state.triples()))

        base_items = np.asarray(self.selector.items(), dtype=np.int64)
        nlist = min(8, max(1, len(base_items)))
        base_index = IVFFlatIndex(
            dim=self.dim, nlist=nlist, nprobe=min(4, nlist), seed=experiment.seed
        )
        base_index.build(self.trainer.entity_table[base_items], base_items)
        self.index = DeltaIndex(base_index, registry=self.metrics)
        self.versioner = SnapshotVersioner(self.run_dir, registry=self.metrics)
        self.publishes = 0

        self._batches_c = self.metrics.counter(
            "stream.batches", help="Delta batches absorbed"
        )
        self._ops_c = {
            kind: self.metrics.counter(
                "stream.ops", help="Delta ops absorbed", labels={"op": kind}
            )
            for kind in ("new-item", "add", "update", "delete", "retire")
        }
        self._entities_added_c = self.metrics.counter(
            "stream.entities_added", help="Stream-born entities warm-started"
        )
        self._fresh_triples_c = self.metrics.counter(
            "stream.fresh_triples", help="Fresh triples fed to training"
        )
        self._train_steps_c = self.metrics.counter(
            "stream.train_steps", help="Continual SGD steps taken"
        )
        self._train_loss_c = self.metrics.counter(
            "stream.train_loss", help="Summed continual margin loss"
        )
        self._seq_g = self.metrics.gauge(
            "stream.seq", help="Next op sequence number"
        )
        self._live_g = self.metrics.gauge(
            "stream.live_items", help="Live (servable) item entities"
        )
        self._entities_g = self.metrics.gauge(
            "stream.entities", help="Total entity rows (live + retired)"
        )
        self._stale_ops_g = self.metrics.gauge(
            "stream.staleness.ops_since_publish",
            help="Ops absorbed since the promoted snapshot",
        )
        self._stale_batches_g = self.metrics.gauge(
            "stream.staleness.batches_since_publish",
            help="Batches absorbed since the promoted snapshot",
        )

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, batches: Optional[int] = None) -> StreamReport:
        """Run (or resume, or replay) ``batches`` ingest rounds.

        The verified delta-log prefix replays first — through exactly
        the same absorb path — then generation continues from wherever
        the log ends.  A fresh directory runs purely generatively; a
        complete one replays purely; a crashed one does both.
        """
        total = self.config.batches if batches is None else batches
        logged = self.log.scan()
        ops_total = 0
        replayed = 0
        for index in range(total):
            if index < len(logged):
                batch = logged[index]
                for op in batch.ops:
                    self.state.apply(op)
                replayed += 1
            else:
                batch = self.stream.generate(index)
                self.log.append(batch)
            ops_total += len(batch.ops)
            self._absorb(batch)
            if (index + 1) % self.config.publish_every == 0:
                self.publish()
        return StreamReport(
            batches=total,
            replayed_batches=replayed,
            ops=ops_total,
            last_seq=self.state.next_seq - 1,
            live_items=self.state.live_count,
            entities=self.state.next_entity_id,
            publishes=self.publishes,
            state_checksum=self.state.checksum(),
            warm_methods=dict(self.trainer.warm_methods),
            index_live=self.index.live_count,
            index_tombstones=len(self.index.tombstones),
        )

    def _absorb(self, batch: DeltaBatch) -> None:
        """Apply one batch to the trainer and the index (shared path)."""
        for op in batch.ops:
            self._ops_c[op.op].inc(1)
        steps_before = self.trainer.steps_taken
        stats = self.trainer.absorb(batch, self.state)
        self._entities_added_c.inc(stats["new_entities"])
        self._fresh_triples_c.inc(stats["fresh_triples"])
        self._train_steps_c.inc(self.trainer.steps_taken - steps_before)
        self._train_loss_c.inc(stats["loss"])

        new_items = [op.head for op in batch.ops if op.op == OP_NEW_ITEM]
        if new_items:
            ids = np.asarray(new_items, dtype=np.int64)
            self.index.insert(self.trainer.entity_table[ids], ids)
        for op in batch.ops:
            if op.op == OP_RETIRE:
                self.index.delete(np.asarray([op.head], dtype=np.int64))
            elif op.op == OP_UPDATE and op.head not in new_items:
                # A re-described live item gets its row re-embedded; a
                # tombstone cannot express that (it would also hide the
                # replacement).
                if self.index.is_live(op.head):
                    self.index.update(
                        op.head, self.trainer.entity_table[op.head]
                    )
        self.index.maintenance()

        self._batches_c.inc(1)
        self._seq_g.set(self.state.next_seq)
        self._live_g.set(self.state.live_count)
        self._entities_g.set(self.state.next_entity_id)
        self._stale_ops_g.add(len(batch.ops))
        self._stale_batches_g.add(1)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def _key_relations_for(self, item: int) -> List[int]:
        try:
            return self.selector.for_item(item)
        except KeyError:
            category = self.state.category_of.get(item, -1)
            try:
                return self.selector.for_category(category)
            except KeyError:
                return self.selector.for_category(
                    self.selector.categories()[0]
                )

    def publish(self) -> Path:
        """Freeze the live state as the next snapshot version."""
        if self.index.tombstones:
            self.index.compact()
        live = self.state.live_items()
        item_ids = np.asarray(live, dtype=np.int64)
        key_table = np.asarray(
            [self._key_relations_for(item) for item in live], dtype=np.int64
        ).reshape(len(live), self.selector.k)
        directory = self.versioner.publish(
            self.publishes,
            {
                "entity_table": self.trainer.entity_table,
                "relation_table": self.relation_table,
                "transfer": self.transfer,
                "item_ids": item_ids,
                "key_relations": key_table,
            },
            self.index.index,
            seq=self.state.next_seq - 1,
        )
        self.publishes += 1
        self._stale_ops_g.set(0)
        self._stale_batches_g.set(0)
        return directory

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics_dump(self) -> str:
        """Canonical JSON of every ``stream.*`` series (chaos gate input)."""
        snapshot = {
            key: value
            for key, value in self.metrics.snapshot().items()
            if key.startswith("stream.")
        }
        return json.dumps(snapshot, sort_keys=True, indent=2)
