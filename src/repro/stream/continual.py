"""Continual refinement of stream-born embeddings without forgetting.

The frozen-eval baseline (the pre-trained snapshot the benchmarks
score) is never touched: :class:`ContinualTrainer` owns a *copy* of
the entity table and refines it with bounded numpy TransE-L1 SGD
steps — relation embeddings and transfer matrices stay frozen, so the
service geometry new entities must fit into is fixed.

Two choices keep recovery trivial:

* **plain SGD, no optimizer state** — crash recovery is a full
  deterministic replay from seq 0 (the delta log is the only durable
  state), which bit-exactly reproduces the table with nothing but the
  log;
* **seeded reservoir replay** — each training step mixes fresh stream
  triples with a reservoir sample of old catalog triples
  (:class:`ReplayBuffer`), the standard defense against catastrophic
  forgetting, with the reservoir's RNG seeded so its contents are a
  pure function of the offer history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .deltas import OP_ADD, OP_NEW_ITEM, OP_UPDATE, DeltaBatch, StreamState
from .warmstart import warm_start


#: SGD step size of every continual step.
LEARNING_RATE = 0.05
#: Rows a step touches, and warm-started rows, are projected back into
#: the L2 ball of this radius.
MAX_NORM = 1.0


@dataclass(frozen=True)
class ContinualConfig:
    """Bounded-update knobs for one absorbed batch.

    Every step trains at margin 2.0 and :data:`LEARNING_RATE` on a batch
    that is half replay, drawn from a 2048-triple reservoir.
    """

    seed: int = 0
    steps_per_batch: int = 4
    step_batch_size: int = 32

    def __post_init__(self) -> None:
        if self.steps_per_batch < 0:
            raise ValueError("steps_per_batch must be >= 0")
        if self.step_batch_size < 1:
            raise ValueError("step_batch_size must be >= 1")


class ReplayBuffer:
    """Seeded reservoir sample over every triple ever offered.

    Classic reservoir sampling: triple ``n`` is kept with probability
    ``capacity / n``, evicting a uniform victim.  The RNG is seeded at
    construction, so the buffer contents are a deterministic function
    of the offer sequence — which is itself the replayable op history.
    """

    def __init__(self, capacity: int, seed: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rng = np.random.default_rng([seed, 0x5E5E])
        self._items: List[Tuple[int, int, int]] = []
        self._offered = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def offered(self) -> int:
        return self._offered

    def offer(self, triple: Tuple[int, int, int]) -> None:
        self._offered += 1
        if len(self._items) < self.capacity:
            self._items.append(triple)
            return
        slot = int(self._rng.integers(self._offered))
        if slot < self.capacity:
            self._items[slot] = triple

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``(count, 3)`` triples drawn uniformly (with replacement)."""
        if not self._items or count < 1:
            return np.zeros((0, 3), dtype=np.int64)
        picks = rng.integers(len(self._items), size=count)
        return np.asarray([self._items[int(p)] for p in picks], dtype=np.int64)


class ContinualTrainer:
    """Warm-start + bounded replay-buffered TransE steps per batch.

    Owns the (growing) entity table; ``entity_table`` is the live
    serving candidate that :mod:`repro.stream.snapshot_swap` publishes.
    Per-batch RNG is ``default_rng([seed, batch_index, 1])`` so a
    replayed batch trains identically to the original run.
    """

    def __init__(
        self,
        entity_table: np.ndarray,
        relation_table: np.ndarray,
        config: ContinualConfig,
    ) -> None:
        self.entity_table = np.array(entity_table, dtype=np.float64, copy=True)
        self.relation_table = np.asarray(relation_table, dtype=np.float64)
        self.config = config
        self.buffer = ReplayBuffer(2048, config.seed)
        self.steps_taken = 0
        self.warm_methods: Dict[str, int] = {}

    @property
    def num_entities(self) -> int:
        return int(self.entity_table.shape[0])

    def seed_buffer(self, triples: Sequence[Tuple[int, int, int]]) -> None:
        """Offer the base catalog's triples (sorted order = replayable)."""
        for triple in triples:
            self.buffer.offer(
                (int(triple[0]), int(triple[1]), int(triple[2]))
            )

    # ------------------------------------------------------------------
    # Batch absorption
    # ------------------------------------------------------------------
    def absorb(self, batch: DeltaBatch, state: StreamState) -> dict:
        """Warm-start this batch's new entities, then refine.

        ``state`` must already reflect the batch (the pipeline applies
        ops as it generates or replays them); it supplies category
        membership for warm starts.  Returns summary stats for metrics.
        """
        new_entities = [op.head for op in batch.ops if op.op == OP_NEW_ITEM]
        fresh: List[Tuple[int, int, int]] = []
        new_attrs: Dict[int, Dict[int, int]] = {e: {} for e in new_entities}
        for op in batch.ops:
            if op.op in (OP_ADD, OP_UPDATE):
                fresh.append((op.head, op.relation, op.tail))
                if op.head in new_attrs:
                    new_attrs[op.head][op.relation] = op.tail

        grown = self._grow(new_entities, new_attrs, state)
        for triple in fresh:
            self.buffer.offer(triple)
        loss = self._train(batch.batch_index, fresh)
        return {
            "new_entities": grown,
            "fresh_triples": len(fresh),
            "loss": loss,
        }

    def _grow(
        self,
        new_entities: List[int],
        new_attrs: Dict[int, Dict[int, int]],
        state: StreamState,
    ) -> int:
        if not new_entities:
            return 0
        dim = self.entity_table.shape[1]
        rows = np.zeros((len(new_entities), dim), dtype=np.float64)
        members_by_category: Dict[int, List[int]] = {}
        for position, entity in enumerate(new_entities):
            if entity != self.num_entities + position:
                raise ValueError(
                    f"entity {entity} arrives out of order (table has "
                    f"{self.num_entities + position} rows)"
                )
            category = state.category_of.get(entity, -1)
            if category not in members_by_category:
                members_by_category[category] = [
                    item
                    for item in state.live_items()
                    if state.category_of.get(item) == category
                    and item < self.num_entities
                ]
            vector, method = warm_start(
                entity,
                new_attrs.get(entity, {}),
                members_by_category[category],
                self.entity_table,
                self.relation_table,
                self.config.seed,
                max_norm=MAX_NORM,
            )
            rows[position] = vector
            self.warm_methods[method] = self.warm_methods.get(method, 0) + 1
        self.entity_table = np.concatenate([self.entity_table, rows], axis=0)
        return len(new_entities)

    def _train(
        self,
        batch_index: int,
        fresh: List[Tuple[int, int, int]],
    ) -> float:
        """Bounded margin-SGD over fresh ∪ replay; returns summed loss."""
        config = self.config
        if config.steps_per_batch == 0 or (not fresh and not len(self.buffer)):
            return 0.0
        rng = np.random.default_rng([config.seed, batch_index, 1])
        fresh_arr = (
            np.asarray(fresh, dtype=np.int64)
            if fresh
            else np.zeros((0, 3), dtype=np.int64)
        )
        total_loss = 0.0
        for _ in range(config.steps_per_batch):
            n_replay = int(round(config.step_batch_size * 0.5))
            n_fresh = config.step_batch_size - n_replay
            parts = []
            if len(fresh_arr) and n_fresh:
                picks = rng.integers(len(fresh_arr), size=n_fresh)
                parts.append(fresh_arr[picks])
            replay = self.buffer.sample(n_replay, rng)
            if len(replay):
                parts.append(replay)
            if not parts:
                continue
            positives = np.concatenate(parts, axis=0)
            negatives = positives.copy()
            negatives[:, 2] = rng.integers(
                self.num_entities, size=len(negatives)
            )
            total_loss += self._sgd_step(positives, negatives)
            self.steps_taken += 1
        return float(total_loss)

    def _sgd_step(
        self, positives: np.ndarray, negatives: np.ndarray
    ) -> float:
        """One TransE-L1 margin step on the entity table only."""
        table, relations = self.entity_table, self.relation_table
        lr, margin = LEARNING_RATE, 2.0

        def residual(triples: np.ndarray) -> np.ndarray:
            return (
                table[triples[:, 0]]
                + relations[triples[:, 1]]
                - table[triples[:, 2]]
            )

        pos_res = residual(positives)
        neg_res = residual(negatives)
        pos_d = np.abs(pos_res).sum(axis=1)
        neg_d = np.abs(neg_res).sum(axis=1)
        violation = pos_d + margin - neg_d
        active = violation > 0
        loss = float(violation[active].sum())
        if not active.any():
            return 0.0
        # d|x|/dx = sign(x): push positive residuals down, negative up.
        pos_g = np.sign(pos_res[active]) * lr
        neg_g = np.sign(neg_res[active]) * lr
        touched = np.unique(
            np.concatenate(
                [
                    positives[active][:, 0],
                    positives[active][:, 2],
                    negatives[active][:, 0],
                    negatives[active][:, 2],
                ]
            )
        )
        np.add.at(table, positives[active][:, 0], -pos_g)
        np.add.at(table, positives[active][:, 2], pos_g)
        np.add.at(table, negatives[active][:, 0], neg_g)
        np.add.at(table, negatives[active][:, 2], -neg_g)
        norms = np.linalg.norm(table[touched], axis=1, keepdims=True)
        scale = np.minimum(1.0, MAX_NORM / np.maximum(norms, 1e-12))
        table[touched] = table[touched] * scale
        return loss
