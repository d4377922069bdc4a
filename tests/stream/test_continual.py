"""Continual trainer: growth contract, frozen baselines, replay buffer."""

import numpy as np
import pytest

from repro.stream import (
    CatalogDeltaStream,
    ContinualConfig,
    ContinualTrainer,
    DeltaStreamConfig,
    ReplayBuffer,
    StreamState,
)


def build_trainer(catalog, rng):
    entity_table = rng.standard_normal((len(catalog.entities), 6)) * 0.3
    relation_table = rng.standard_normal((len(catalog.relations), 6)) * 0.3
    return ContinualTrainer(entity_table, relation_table, ContinualConfig())


class TestReplayBuffer:
    def test_reservoir_is_bounded_and_seeded(self):
        buffers = []
        for _ in range(2):
            buffer = ReplayBuffer(capacity=8, seed=3)
            for n in range(100):
                buffer.offer((n, 0, n + 1))
            buffers.append(buffer)
        assert len(buffers[0]) == 8
        assert buffers[0]._items == buffers[1]._items

    def test_sample_uses_caller_rng(self):
        buffer = ReplayBuffer(capacity=8, seed=0)
        for n in range(8):
            buffer.offer((n, 0, n))
        a = buffer.sample(4, np.random.default_rng(1))
        b = buffer.sample(4, np.random.default_rng(1))
        assert np.array_equal(a, b)
        assert a.shape == (4, 3)

    def test_empty_sample(self):
        buffer = ReplayBuffer(capacity=4, seed=0)
        assert buffer.sample(4, np.random.default_rng(0)).shape == (0, 3)


class TestAbsorb:
    def test_absorb_grows_table_and_trains(self, catalog):
        rng = np.random.default_rng(0)
        trainer = build_trainer(catalog, rng)
        state = StreamState.from_catalog(catalog)
        stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=0))
        before_rows = trainer.num_entities
        batch = stream.generate(0)
        stats = trainer.absorb(batch, state)
        new_items = sum(1 for op in batch.ops if op.op == "new-item")
        assert trainer.num_entities == before_rows + new_items
        assert stats["new_entities"] == new_items
        assert trainer.steps_taken > 0

    def test_relation_table_is_frozen(self, catalog):
        rng = np.random.default_rng(0)
        trainer = build_trainer(catalog, rng)
        frozen = trainer.relation_table.copy()
        state = StreamState.from_catalog(catalog)
        stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=0))
        trainer.absorb(stream.generate(0), state)
        assert np.array_equal(trainer.relation_table, frozen)

    def test_source_entity_table_is_not_mutated(self, catalog):
        rng = np.random.default_rng(0)
        entity_table = rng.standard_normal((len(catalog.entities), 6))
        original = entity_table.copy()
        relation_table = rng.standard_normal((len(catalog.relations), 6))
        trainer = ContinualTrainer(entity_table, relation_table, ContinualConfig())
        state = StreamState.from_catalog(catalog)
        stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=0))
        trainer.absorb(stream.generate(0), state)
        assert np.array_equal(entity_table, original)

    def test_out_of_order_entity_is_rejected(self, catalog):
        from repro.stream import DeltaBatch, DeltaOp

        rng = np.random.default_rng(0)
        trainer = build_trainer(catalog, rng)
        state = StreamState.from_catalog(catalog)
        bogus = DeltaBatch(
            batch_index=0, base_seq=0, last_seq=0,
            ops=(
                DeltaOp(
                    seq=0, op="new-item",
                    head=trainer.num_entities + 3,
                    relation=-1, tail=-1, category_id=0,
                ),
            ),
        )
        with pytest.raises(ValueError, match="out of order"):
            trainer.absorb(bogus, state)

    def test_replayed_batches_train_identically(self, catalog):
        tables = []
        for _ in range(2):
            rng = np.random.default_rng(0)
            trainer = build_trainer(catalog, rng)
            state = StreamState.from_catalog(catalog)
            trainer.seed_buffer(sorted(state.triples()))
            stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=0))
            for i in range(3):
                trainer.absorb(stream.generate(i), state)
            tables.append(trainer.entity_table)
        assert np.array_equal(tables[0], tables[1])

    def test_max_norm_respected_for_touched_rows(self, catalog):
        rng = np.random.default_rng(0)
        trainer = build_trainer(catalog, rng)
        table = trainer.entity_table
        table *= 0.99 / np.linalg.norm(table, axis=1, keepdims=True)
        before = table.copy()
        state = StreamState.from_catalog(catalog)
        trainer.seed_buffer(sorted(state.triples()))
        stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=0))
        for i in range(3):
            trainer.absorb(stream.generate(i), state)
        norms = np.linalg.norm(trainer.entity_table, axis=1)
        assert norms.max() <= 1.0 + 1e-9
        # Every row started just inside the unit ball: a step that
        # pushed a row out was projected back onto the sphere.
        moved = np.any(trainer.entity_table[: len(before)] != before, axis=1)
        assert np.isclose(norms[: len(before)][moved], 1.0).any()
