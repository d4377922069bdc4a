"""Seeded, replayable catalog delta streams with a checksummed log.

Real product KGs churn: items are listed, re-described, and delisted
every second.  This module turns the static synthetic catalog into a
*stream* of ``(seq, op, h, r, t)`` delta operations with three
properties the rest of :mod:`repro.stream` builds on:

* **determinism** — batch ``i`` is generated from
  ``np.random.default_rng([seed, i])`` plus the stream state, and the
  state itself is a pure function of the op history; two processes
  that apply the same prefix generate identical continuations;
* **monotone sequence numbers** — every op carries the next ``seq``;
  :meth:`StreamState.apply` enforces contiguity, so a gap or replayed
  duplicate is an error, never silent drift;
* **a write-ahead delta log** — :class:`DeltaLog` persists each batch
  as a self-checksummed JSON segment in the checkpoint discipline
  (atomic tmp → fsync → rename).  ``scan`` fails closed on mid-log
  corruption but forgives a torn *trailing* segment — exactly the
  state a crash mid-append leaves behind.

Ops never grow the value-entity vocabulary: update/add tails are drawn
from the per-``(category, relation)`` value pools observed in the base
catalog, so only *item* entities are born on the stream — matching the
e-commerce reality that attribute vocabularies are curated while
listings churn freely.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from ..data.catalog import Catalog
from ..reliability.checkpoint import atomic_write_bytes
from ..store.layout import canonical_json, parse_manifest, seal_manifest
from ..store.errors import StoreManifestError

#: Op kinds, in the order the generator emits them for one event.
OP_NEW_ITEM = "new-item"
OP_ADD = "add"
OP_UPDATE = "update"
OP_DELETE = "delete"
OP_RETIRE = "retire"

OP_KINDS = (OP_NEW_ITEM, OP_ADD, OP_UPDATE, OP_DELETE, OP_RETIRE)

LOG_VERSION = 1

_SEGMENT_RE = re.compile(r"delta-(\d{6})\.json$")


class DeltaLogError(RuntimeError):
    """The delta log is corrupt before its final segment."""


@dataclass(frozen=True)
class DeltaOp:
    """One catalog mutation with its global sequence number.

    ``entity_label``/``category_id`` ride only on ``new-item`` ops —
    they are what lets a replayer rebuild the item registry without
    the generator's RNG.
    """

    seq: int
    op: str
    head: int
    relation: int
    tail: int
    entity_label: str = ""
    category_id: int = -1

    def to_doc(self) -> dict:
        doc = {
            "seq": self.seq,
            "op": self.op,
            "head": self.head,
            "relation": self.relation,
            "tail": self.tail,
        }
        if self.op == OP_NEW_ITEM:
            doc["entity_label"] = self.entity_label
            doc["category_id"] = self.category_id
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "DeltaOp":
        return cls(
            seq=int(doc["seq"]),
            op=str(doc["op"]),
            head=int(doc["head"]),
            relation=int(doc["relation"]),
            tail=int(doc["tail"]),
            entity_label=str(doc.get("entity_label", "")),
            category_id=int(doc.get("category_id", -1)),
        )


@dataclass(frozen=True)
class DeltaBatch:
    """One generated (or replayed) batch of contiguous ops."""

    batch_index: int
    base_seq: int
    last_seq: int
    ops: Tuple[DeltaOp, ...]

    def to_doc(self) -> dict:
        return {
            "version": LOG_VERSION,
            "batch": self.batch_index,
            "base_seq": self.base_seq,
            "last_seq": self.last_seq,
            "ops": [op.to_doc() for op in self.ops],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "DeltaBatch":
        return cls(
            batch_index=int(doc["batch"]),
            base_seq=int(doc["base_seq"]),
            last_seq=int(doc["last_seq"]),
            ops=tuple(DeltaOp.from_doc(d) for d in doc["ops"]),
        )


class StreamState:
    """The live catalog view: items, their attributes, value pools.

    Mutated *only* through :meth:`apply`, which both the generator and
    the replayer use — there is one mutation code path, so generated
    and replayed states cannot diverge.
    """

    def __init__(
        self,
        live: Dict[int, Dict[int, int]],
        category_of: Dict[int, int],
        pools: Dict[Tuple[int, int], List[int]],
        next_entity_id: int,
    ) -> None:
        self.live = live
        self.category_of = category_of
        self.pools = pools
        self.next_entity_id = next_entity_id
        self.next_seq = 0
        self.base_entity_count = next_entity_id

    @classmethod
    def from_catalog(cls, catalog: Catalog) -> "StreamState":
        live: Dict[int, Dict[int, int]] = {}
        category_of: Dict[int, int] = {}
        pools: Dict[Tuple[int, int], List[int]] = {}
        pool_sets: Dict[Tuple[int, int], set] = {}
        for item in catalog.items:
            attrs: Dict[int, int] = {}
            for triple in catalog.store.triples_with_head(item.entity_id):
                attrs[triple.relation] = triple.tail
                key = (item.category_id, triple.relation)
                pool_sets.setdefault(key, set()).add(triple.tail)
            live[item.entity_id] = attrs
            category_of[item.entity_id] = item.category_id
        for key, values in pool_sets.items():
            pools[key] = sorted(values)
        return cls(
            live=live,
            category_of=category_of,
            pools=pools,
            next_entity_id=len(catalog.entities),
        )

    # -- queries --------------------------------------------------------
    @property
    def live_count(self) -> int:
        return len(self.live)

    def live_items(self) -> List[int]:
        """Live item entity ids, ascending (the generator's pick order)."""
        return sorted(self.live)

    def categories(self) -> List[int]:
        """Categories with at least one value pool, ascending."""
        return sorted({category for category, _ in self.pools})

    def pool_relations(self, category_id: int) -> List[int]:
        """Relations with a value pool in ``category_id``, ascending."""
        return sorted(
            relation
            for category, relation in self.pools
            if category == category_id
        )

    def triples(self) -> List[Tuple[int, int, int]]:
        """Every live ``(h, r, t)``, sorted — the current KG view."""
        out = []
        for head in sorted(self.live):
            for relation in sorted(self.live[head]):
                out.append((head, relation, self.live[head][relation]))
        return out

    def checksum(self) -> str:
        """SHA-256 of the canonical state — replay-equality witness."""
        doc = {
            "next_entity_id": self.next_entity_id,
            "next_seq": self.next_seq,
            "triples": [list(t) for t in self.triples()],
            "categories": {
                str(e): self.category_of[e] for e in sorted(self.live)
            },
        }
        return hashlib.sha256(canonical_json(doc)).hexdigest()

    # -- the single mutation path --------------------------------------
    def apply(self, op: DeltaOp) -> None:
        """Apply one op, enforcing seq contiguity and referential sanity."""
        if op.seq != self.next_seq:
            raise DeltaLogError(
                f"op seq {op.seq} != expected {self.next_seq} (gap or replay)"
            )
        if op.op == OP_NEW_ITEM:
            if op.head != self.next_entity_id:
                raise DeltaLogError(
                    f"new-item entity {op.head} != expected "
                    f"{self.next_entity_id}"
                )
            self.live[op.head] = {}
            self.category_of[op.head] = op.category_id
            self.next_entity_id += 1
        elif op.op in (OP_ADD, OP_UPDATE):
            if op.head not in self.live:
                raise DeltaLogError(f"{op.op} on unknown item {op.head}")
            self.live[op.head][op.relation] = op.tail
        elif op.op == OP_DELETE:
            attrs = self.live.get(op.head)
            if attrs is None or attrs.get(op.relation) != op.tail:
                raise DeltaLogError(
                    f"delete of absent triple ({op.head}, {op.relation}, "
                    f"{op.tail})"
                )
            del attrs[op.relation]
        elif op.op == OP_RETIRE:
            if op.head not in self.live:
                raise DeltaLogError(f"retire of unknown item {op.head}")
            if self.live[op.head]:
                raise DeltaLogError(
                    f"retire of item {op.head} with live attributes"
                )
            del self.live[op.head]
        else:
            raise DeltaLogError(f"unknown op kind {op.op!r}")
        self.next_seq += 1


#: Add / update / delete shares of the generated events.
EVENT_PROBABILITIES = (0.45, 0.35, 0.20)
#: A delete drawn with this few live items or fewer becomes an add, so
#: the catalog never drains dry.
MIN_LIVE_ITEMS = 4


@dataclass(frozen=True)
class DeltaStreamConfig:
    """Seed of the generated churn: eight events per batch, drawn with
    :data:`EVENT_PROBABILITIES`, and a new item fills each attribute of
    its category with probability 0.8."""

    seed: int = 0


class CatalogDeltaStream:
    """Deterministic delta generator over a :class:`StreamState`.

    ``generate(i)`` is a pure function of ``(state, i)``: the per-batch
    RNG is ``default_rng([seed, i])`` and every emitted op mutates the
    state through :meth:`StreamState.apply` before the next is drawn —
    so replaying logged batches 0..i-1 and then calling ``generate(i)``
    reproduces the original run bit-for-bit.
    """

    def __init__(self, state: StreamState, config: DeltaStreamConfig) -> None:
        self.state = state
        self.config = config

    def generate(self, batch_index: int) -> DeltaBatch:
        rng = np.random.default_rng([self.config.seed, batch_index])
        base_seq = self.state.next_seq
        ops: List[DeltaOp] = []
        kinds = (OP_ADD, OP_UPDATE, OP_DELETE)
        for _ in range(8):
            kind = kinds[rng.choice(len(kinds), p=EVENT_PROBABILITIES)]
            if kind == OP_DELETE and self.state.live_count <= MIN_LIVE_ITEMS:
                kind = OP_ADD
            if kind == OP_UPDATE and self.state.live_count == 0:
                kind = OP_ADD
            if kind == OP_ADD:
                ops.extend(self._emit_add(rng))
            elif kind == OP_UPDATE:
                ops.extend(self._emit_update(rng))
            else:
                ops.extend(self._emit_delete(rng))
        return DeltaBatch(
            batch_index=batch_index,
            base_seq=base_seq,
            last_seq=self.state.next_seq - 1,
            ops=tuple(ops),
        )

    # -- event emitters (each op applied as it is drawn) ---------------
    def _emit(self, op: DeltaOp) -> DeltaOp:
        self.state.apply(op)
        return op

    def _emit_add(self, rng: np.random.Generator) -> List[DeltaOp]:
        categories = self.state.categories()
        category = int(categories[rng.integers(len(categories))])
        entity = self.state.next_entity_id
        ops = [
            self._emit(
                DeltaOp(
                    seq=self.state.next_seq,
                    op=OP_NEW_ITEM,
                    head=entity,
                    relation=-1,
                    tail=-1,
                    entity_label=f"stream_item_{entity}",
                    category_id=category,
                )
            )
        ]
        for relation in self.state.pool_relations(category):
            if rng.random() >= 0.8:
                continue
            pool = self.state.pools[(category, relation)]
            tail = int(pool[rng.integers(len(pool))])
            ops.append(
                self._emit(
                    DeltaOp(
                        seq=self.state.next_seq,
                        op=OP_ADD,
                        head=entity,
                        relation=relation,
                        tail=tail,
                    )
                )
            )
        return ops

    def _emit_update(self, rng: np.random.Generator) -> List[DeltaOp]:
        items = self.state.live_items()
        head = int(items[rng.integers(len(items))])
        attrs = self.state.live[head]
        if not attrs:
            return self._emit_add(rng)
        relations = sorted(attrs)
        relation = int(relations[rng.integers(len(relations))])
        pool = self.state.pools.get(
            (self.state.category_of[head], relation), [attrs[relation]]
        )
        tail = int(pool[rng.integers(len(pool))])
        return [
            self._emit(
                DeltaOp(
                    seq=self.state.next_seq,
                    op=OP_UPDATE,
                    head=head,
                    relation=relation,
                    tail=tail,
                )
            )
        ]

    def _emit_delete(self, rng: np.random.Generator) -> List[DeltaOp]:
        items = self.state.live_items()
        head = int(items[rng.integers(len(items))])
        ops = []
        for relation in sorted(self.state.live[head]):
            ops.append(
                self._emit(
                    DeltaOp(
                        seq=self.state.next_seq,
                        op=OP_DELETE,
                        head=head,
                        relation=relation,
                        tail=self.state.live[head][relation],
                    )
                )
            )
        ops.append(
            self._emit(
                DeltaOp(
                    seq=self.state.next_seq,
                    op=OP_RETIRE,
                    head=head,
                    relation=-1,
                    tail=-1,
                )
            )
        )
        return ops


class DeltaLog:
    """Checksummed, atomic, torn-tail-tolerant delta segments.

    One file per batch — ``delta-000042.json`` — sealed with the store
    manifest discipline (:func:`repro.store.layout.seal_manifest`), so
    a flipped bit fails the self-checksum and a crash mid-append leaves
    a temp file the scan never sees (or a torn final segment it
    forgives).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def segment_path(self, batch_index: int) -> Path:
        return self.directory / f"delta-{batch_index:06d}.json"

    def append(self, batch: DeltaBatch) -> Path:
        path = self.segment_path(batch.batch_index)
        document = seal_manifest(batch.to_doc())
        atomic_write_bytes(path, canonical_json(document))
        return path

    def segment_indexes(self) -> List[int]:
        found = []
        for path in self.directory.glob("delta-*.json"):
            match = _SEGMENT_RE.fullmatch(path.name)
            if match is not None:
                found.append(int(match.group(1)))
        return sorted(found)

    def scan(self) -> List[DeltaBatch]:
        """Every verified batch, in order.

        The *final* segment is dropped silently when torn or corrupt —
        that is the legal crash-mid-append state.  Damage anywhere
        earlier, a numbering gap, or a seq discontinuity raises
        :class:`DeltaLogError`: the log prefix must be trusted before
        anything replays from it.
        """
        indexes = self.segment_indexes()
        batches: List[DeltaBatch] = []
        for position, batch_index in enumerate(indexes):
            is_last = position == len(indexes) - 1
            if batch_index != position:
                raise DeltaLogError(
                    f"segment numbering gap: found batch {batch_index} "
                    f"at position {position}"
                )
            try:
                document = parse_manifest(
                    self.segment_path(batch_index).read_bytes()
                )
                batch = DeltaBatch.from_doc(document)
            except (StoreManifestError, KeyError, ValueError) as error:
                if is_last:
                    break  # torn tail: a crash mid-append; regenerate it
                raise DeltaLogError(
                    f"delta segment {batch_index} is corrupt mid-log: {error}"
                ) from error
            if batch.batch_index != batch_index:
                if is_last:
                    break
                raise DeltaLogError(
                    f"segment {batch_index} claims batch {batch.batch_index}"
                )
            expected = batches[-1].last_seq + 1 if batches else 0
            if batch.base_seq != expected or any(
                op.seq != batch.base_seq + i for i, op in enumerate(batch.ops)
            ):
                if is_last:
                    break
                raise DeltaLogError(
                    f"segment {batch_index} breaks seq contiguity"
                )
            batches.append(batch)
        return batches
