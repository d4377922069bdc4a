"""Delta generation determinism, state contracts, and the log scan."""

import numpy as np
import pytest

from repro.stream import (
    OP_ADD,
    OP_DELETE,
    OP_KINDS,
    OP_NEW_ITEM,
    OP_RETIRE,
    OP_UPDATE,
    CatalogDeltaStream,
    DeltaLog,
    DeltaLogError,
    DeltaOp,
    DeltaStreamConfig,
    StreamState,
)
from repro.stream.deltas import EVENT_PROBABILITIES


class TestGeneration:
    def test_same_seed_same_batches(self, catalog):
        runs = []
        for _ in range(2):
            state = StreamState.from_catalog(catalog)
            stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=3))
            runs.append([stream.generate(i) for i in range(4)])
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self, catalog):
        checks = []
        for seed in (0, 1):
            state = StreamState.from_catalog(catalog)
            stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=seed))
            for i in range(3):
                stream.generate(i)
            checks.append(state.checksum())
        assert checks[0] != checks[1]

    def test_seq_numbers_are_contiguous(self, stream):
        ops = [op for i in range(4) for op in stream.generate(i).ops]
        assert [op.seq for op in ops] == list(range(len(ops)))
        assert all(op.op in OP_KINDS for op in ops)

    def test_new_tails_come_from_base_pools(self, catalog, stream):
        base_entities = len(catalog.entities)
        for i in range(6):
            for op in stream.generate(i).ops:
                if op.op in (OP_ADD, OP_UPDATE):
                    assert op.tail < base_entities

    def test_min_live_floor_holds_under_heavy_deletes(self, catalog):
        """From MIN_LIVE_ITEMS (4) live items, a drawn delete adds instead."""
        state = StreamState.from_catalog(catalog)
        for head in state.live_items()[4:]:
            for relation, tail in sorted(state.live[head].items()):
                state.apply(DeltaOp(state.next_seq, OP_DELETE, head, relation, tail))
            state.apply(DeltaOp(state.next_seq, OP_RETIRE, head, -1, -1))
        assert state.live_count == 4
        # The first seed whose first event of batch 0 is a delete.
        seed = next(
            seed
            for seed in range(100)
            if np.random.default_rng([seed, 0]).choice(3, p=EVENT_PROBABILITIES) == 2
        )
        stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=seed))
        assert stream.generate(0).ops[0].op == OP_NEW_ITEM
        for i in range(1, 8):
            stream.generate(i)
            assert state.live_count >= 4


class TestStreamState:
    def test_apply_rejects_seq_gap(self, state):
        op = DeltaOp(
            seq=state.next_seq + 1, op=OP_NEW_ITEM,
            head=state.next_entity_id, relation=-1, tail=-1,
            category_id=0,
        )
        with pytest.raises(DeltaLogError, match="seq"):
            state.apply(op)

    def test_apply_rejects_out_of_order_entity(self, state):
        op = DeltaOp(
            seq=state.next_seq, op=OP_NEW_ITEM,
            head=state.next_entity_id + 5, relation=-1, tail=-1,
            category_id=0,
        )
        with pytest.raises(DeltaLogError, match="new-item"):
            state.apply(op)

    def test_delete_must_name_the_exact_triple(self, state):
        head = state.live_items()[0]
        relation = sorted(state.live[head])[0]
        wrong_tail = state.live[head][relation] + 1
        op = DeltaOp(
            seq=state.next_seq, op=OP_DELETE,
            head=head, relation=relation, tail=wrong_tail,
        )
        with pytest.raises(DeltaLogError, match="absent triple"):
            state.apply(op)

    def test_retire_requires_empty_attributes(self, state):
        head = state.live_items()[0]
        assert state.live[head]  # smoke items carry attributes
        op = DeltaOp(
            seq=state.next_seq, op=OP_RETIRE, head=head, relation=-1, tail=-1
        )
        with pytest.raises(DeltaLogError, match="live attributes"):
            state.apply(op)

    def test_checksum_tracks_state(self, catalog, stream):
        before = stream.state.checksum()
        stream.generate(0)
        assert stream.state.checksum() != before


class TestDeltaLog:
    def _filled_log(self, tmp_path, catalog, batches=3):
        state = StreamState.from_catalog(catalog)
        stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=1))
        log = DeltaLog(tmp_path / "deltas")
        generated = [stream.generate(i) for i in range(batches)]
        for batch in generated:
            log.append(batch)
        return log, generated

    def test_roundtrip(self, tmp_path, catalog):
        log, generated = self._filled_log(tmp_path, catalog)
        assert log.scan() == generated

    def test_torn_tail_is_forgiven(self, tmp_path, catalog):
        log, generated = self._filled_log(tmp_path, catalog)
        path = log.segment_path(2)
        path.write_bytes(path.read_bytes()[:30])
        assert log.scan() == generated[:2]

    def test_mid_log_damage_fails_closed(self, tmp_path, catalog):
        log, _ = self._filled_log(tmp_path, catalog)
        path = log.segment_path(1)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DeltaLogError, match="mid-log"):
            log.scan()

    def test_numbering_gap_fails_closed(self, tmp_path, catalog):
        log, _ = self._filled_log(tmp_path, catalog)
        log.segment_path(1).unlink()
        with pytest.raises(DeltaLogError, match="numbering gap"):
            log.scan()

    def test_replay_reproduces_generation(self, tmp_path, catalog):
        log, _ = self._filled_log(tmp_path, catalog, batches=4)
        original = CatalogDeltaStream(
            StreamState.from_catalog(catalog), DeltaStreamConfig(seed=1)
        )
        for i in range(5):
            original.generate(i)
        replayed_state = StreamState.from_catalog(catalog)
        for batch in log.scan():
            for op in batch.ops:
                replayed_state.apply(op)
        # Replaying the logged prefix then generating the next batch
        # must match a run that generated everything.
        resumed = CatalogDeltaStream(replayed_state, DeltaStreamConfig(seed=1))
        resumed.generate(4)
        assert replayed_state.checksum() == original.state.checksum()
