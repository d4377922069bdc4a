"""Supervisor tests: real forked workers, real crashes, exactly-once."""

import gc
import os
import pickle
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.serving.supervisor as supervisor_module
from repro.obs.metrics import MetricsRegistry
from repro.ops import OPS, ArrayLayout, OpSpec
from repro.serving import (
    PoolConfig,
    PoolError,
    Supervisor,
    payload_checksum,
    recv_frame,
    run_batch,
    send_frame,
)
from repro.serving.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_UNKNOWN,
    PoolRequest,
    PoolResponse,
    encode,
)
from repro.serving.worker import worker_main
from repro.store import EmbeddingStore, QuarantinedRowError
from tests.serving.conftest import ask
from tests.store.test_store import flip_byte


@pytest.fixture()
def pool(store_dir):
    supervisor = Supervisor(
        store_dir,
        PoolConfig(num_workers=2, max_batch=4, cache_pages=8),
        registry=MetricsRegistry(),
    )
    supervisor.start()
    yield supervisor
    supervisor.shutdown()


class TestBitIdentity:
    def test_serve_matches_in_ram_reference(self, pool, reference, item_ids):
        for entity in item_ids[:6]:
            expected = reference.serve(entity)
            response = ask(pool, "serve", entity)
            assert response.ok
            key_relations, triple_vectors, relation_vectors = response.payload
            np.testing.assert_array_equal(key_relations, expected.key_relations)
            np.testing.assert_array_equal(triple_vectors, expected.triple_vectors)
            np.testing.assert_array_equal(
                relation_vectors, expected.relation_vectors
            )

    def test_retrieval_matches_in_ram_reference(self, pool, reference, item_ids):
        entity = item_ids[0]
        expected_d, expected_i = reference.nearest_tails(entity, 0, k=5)
        got_d, got_i = ask(pool, "retrieve", entity, 0, k=5).payload
        np.testing.assert_array_equal(got_d, expected_d)
        np.testing.assert_array_equal(got_i, expected_i)

    def test_existence_matches_in_ram_reference(self, pool, reference, item_ids):
        entity = item_ids[1]
        expected = float(
            reference.relation_existence_scores(
                np.array([entity]), np.array([1])
            )[0]
        )
        assert ask(pool, "exist", entity, 1).payload == expected

    def test_unknown_entity_answers_unknown_id(self, pool):
        response = ask(pool, "serve", 10_000)
        assert (response.outcome, response.payload) == (STATUS_UNKNOWN, None)


class TestForkedWorkersInheritTheirModules:
    def test_importing_the_supervisor_imports_the_scenario_engines(self):
        # A fresh interpreter: a worker forked from it finds every module
        # it runs already imported, so a start or restart compiles none.
        src = Path(__file__).resolve().parents[2] / "src"
        probe = (
            "import sys, repro.serving.supervisor; "
            "print('repro.scenarios.service' in sys.modules)"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "True"


class TestLifecycle:
    def test_start_brings_all_workers_up(self, pool):
        assert pool.metrics.gauge("pool.workers_up").value == 2
        assert all(pid is not None for pid in pool.worker_pids())

    def test_heartbeats_answered(self, pool):
        assert pool.ping_all(timeout=10.0) == 2
        assert pool.metrics.counter("pool.heartbeats").value == 2
        assert pool.metrics.counter("pool.heartbeat_losses").value == 0

    def test_shutdown_is_clean_and_repeatable(self, store_dir):
        supervisor = Supervisor(store_dir, PoolConfig(num_workers=2))
        supervisor.start()
        supervisor.shutdown()
        supervisor.shutdown()
        assert pool_down(supervisor)

    def test_rejects_non_server_store(self, tmp_path):
        plain = EmbeddingStore.build(
            tmp_path / "plain",
            {"entity_table": np.zeros((4, 2))},
            num_shards=1,
            page_bytes=128,
            metadata={"kind": "test"},
        )
        plain.close()
        with pytest.raises(PoolError):
            Supervisor(tmp_path / "plain")


def pool_down(supervisor):
    return all(
        handle.process is None or not handle.process.is_alive()
        for handle in supervisor.workers
    )


class TestCrashRecovery:
    def test_kill_discovered_replayed_and_restarted(self, pool, item_ids):
        request_ids = [
            pool.submit("serve", entity) for entity in item_ids[:3]
        ]
        pool.kill_worker(0)
        responses = pool.drain()
        assert sorted(r.request_id for r in responses) == sorted(request_ids)
        outcomes = {r.request_id: r.outcome for r in responses}
        assert all(outcome == STATUS_OK for outcome in outcomes.values())
        assert pool.metrics.counter("pool.worker_deaths").value >= 1
        assert pool.metrics.counter("pool.worker_restarts").value >= 1
        assert pool.metrics.counter("pool.duplicates_dropped").value == 0

    def test_sync_call_survives_a_kill(self, pool, reference, item_ids):
        # Pick an entity whose shard belongs to worker 0, then kill 0
        # *before* the call: routing still thinks it is up, the send
        # lands in a dead socket, and the EOF path fails the batch over.
        entity = next(e for e in item_ids if e % 2 == 0)
        pool.kill_worker(0)
        expected = reference.serve(entity)
        _, triple_vectors, _ = ask(pool, "serve", entity).payload
        np.testing.assert_array_equal(triple_vectors, expected.triple_vectors)
        assert pool.metrics.counter("pool.worker_deaths").value == 1

    def test_exactly_once_under_repeated_kills(self, pool, item_ids):
        submitted, answered = [], []
        for round_index in range(3):
            for entity in item_ids[:4]:
                submitted.append(pool.submit("exist", entity, relation=1))
            pool.kill_worker(round_index % 2)
            answered += [r.request_id for r in pool.drain()]
        assert sorted(answered) == sorted(submitted)
        assert pool.metrics.counter("pool.duplicates_dropped").value == 0

    def test_expired_budget_fails_fast_before_dispatch(self, pool, item_ids):
        request_id = pool.submit("serve", item_ids[0], budget=0.0)
        (response,) = pool.responses()
        assert response.request_id == request_id
        assert response.outcome == "deadline"
        assert response.worker == -1
        assert pool.metrics.counter("pool.failfast_deadline").value == 1
        assert pool.metrics.counter("pool.batches_sent").value == 0


def _with_one_bad_answer(body, marker):
    """A worker that answers its first batch with the frame ``body``,
    then holds its socket until the supervisor hangs up; every restart
    (``marker`` exists by then) is a real worker."""

    def worker(sock, store_dir, worker_id, cache_pages=64):
        if marker.exists():
            worker_main(sock, store_dir, worker_id, cache_pages)
            return
        marker.touch()
        send_frame(sock, ("ready", worker_id, 60))
        recv_frame(sock)
        sock.sendall(struct.pack(">I", len(body)) + body)
        recv_frame(sock)

    return worker


_ANSWER = encode(("results", 0, [(0, "ok", 0.5)]))
#: Well-framed bodies that are not a schema message.
OFF_SCHEMA = {
    "pickled-results-without-records": pickle.dumps(("results", 0), protocol=4),
    "trailing-byte": _ANSWER + b"\x00",
    "crc-mismatch": _ANSWER[:-1] + bytes([_ANSWER[-1] ^ 1]),
    "results-without-worker-id": _ANSWER[:24],
    "unknown-tag": bytes([1, 99]) + _ANSWER[2:],
}


class TestOffSchemaFrames:
    @pytest.mark.parametrize("body", list(OFF_SCHEMA.values()), ids=list(OFF_SCHEMA))
    def test_an_off_schema_frame_is_a_torn_frame_death(
        self, store_dir, reference, item_ids, tmp_path, monkeypatch, body
    ):
        """Drain, replay, restart — nothing escapes ``pump``/``wait_any``."""
        monkeypatch.setattr(
            supervisor_module,
            "worker_main",
            _with_one_bad_answer(body, tmp_path / "answered"),
        )
        pool = Supervisor(store_dir, PoolConfig(num_workers=1, max_batch=1))
        pool.start()
        try:
            entity = item_ids[0]
            request_id = pool.submit("serve", entity)
            pool.pump()
            (response,) = pool.drain()
        finally:
            pool.shutdown()
        assert (response.request_id, response.outcome) == (request_id, STATUS_OK)
        assert response.replayed
        expected = OPS["serve"].wire(reference.serve(entity))
        assert response.checksum == payload_checksum("serve", expected)
        for name in ("worker_deaths", "worker_restarts", "replays"):
            assert pool.metrics.counter(f"pool.{name}").value == 1


class TestUnencodablePayloads:
    def test_a_payload_off_its_layout_answers_error_and_kills_no_worker(
        self, store_dir, item_ids, monkeypatch
    ):
        monkeypatch.setitem(
            OPS,
            "halfwidth",
            OpSpec(
                call=lambda backend, entity_id, relation, k: entity_id,
                wire=lambda answer: (np.zeros(3, dtype=np.float32),),
                layout=ArrayLayout(("<f8", ("k",))),
            ),
        )
        pool = Supervisor(store_dir, PoolConfig(num_workers=1, max_batch=2))
        pool.start()
        try:
            submitted = [pool.submit("halfwidth", e) for e in item_ids[:3]]
            responses = pool.drain()
            _, triple_vectors, _ = ask(pool, "serve", item_ids[0]).payload
        finally:
            pool.shutdown()
        assert sorted(r.request_id for r in responses) == submitted
        assert {r.outcome for r in responses} == {STATUS_ERROR}
        assert triple_vectors.dtype == np.float64
        assert pool.metrics.counter("pool.worker_deaths").value == 0


class TestTerminalRecords:
    def test_a_handed_out_payload_is_held_by_its_caller_alone(
        self, pool, item_ids
    ):
        submitted = [pool.submit("serve", e) for e in item_ids[:6]]
        submitted += [pool.submit("retrieve", e, 0, k=5) for e in item_ids[:3]]
        responses = pool.drain()
        assert sorted(r.request_id for r in responses) == sorted(submitted)
        assert all(r.ok and r.payload is not None for r in responses)
        arrays = [weakref.ref(a) for r in responses for a in r.payload]
        del responses
        gc.collect()
        assert all(array() is None for array in arrays)

    def test_a_sync_call_returns_its_payload_and_keeps_nothing(
        self, pool, reference, item_ids
    ):
        entity = item_ids[2]
        _, triple_vectors, _ = ask(pool, "serve", entity).payload
        np.testing.assert_array_equal(
            triple_vectors, reference.serve(entity).triple_vectors
        )
        assert pool.responses() == []
        assert pool.outstanding() == 0

    def test_an_answered_request_leaves_nothing_in_the_pool(self, pool, item_ids):
        requests = 20
        before = _envelopes_alive()
        entities = [item_ids[index % len(item_ids)] for index in range(requests)]
        for entity in entities:
            ask(pool, "exist", entity, 1)
        for entity in entities:
            pool.submit("exist", entity, relation=1)
        responses = pool.drain()
        assert len(responses) == requests
        del responses
        assert _envelopes_alive() == before


def _envelopes_alive():
    gc.collect()
    return sum(
        isinstance(o, (PoolRequest, PoolResponse)) for o in gc.get_objects()
    )


def _answer_twice_then_a_stray(sock, store_dir, worker_id, cache_pages=64):
    """A worker that answers its first batch's request twice, then an
    id the pool never issued, then answers one heartbeat."""
    send_frame(sock, ("ready", worker_id, 60))
    _, _, _, ((request_id, *_),) = recv_frame(sock)
    for answered in (request_id, request_id, 10_000):
        send_frame(sock, ("results", worker_id, [(answered, STATUS_OK, 0.5)]))
    _, sequence = recv_frame(sock)
    send_frame(sock, ("pong", sequence, 1))
    recv_frame(sock)


class TestExactlyOnceGuard:
    def test_a_repeated_or_stray_result_is_counted_and_dropped(
        self, store_dir, item_ids, monkeypatch
    ):
        monkeypatch.setattr(
            supervisor_module, "worker_main", _answer_twice_then_a_stray
        )
        pool = Supervisor(
            store_dir,
            PoolConfig(num_workers=1, max_batch=1),
            registry=MetricsRegistry(),
        )
        pool.start()
        try:
            request_id = pool.submit("exist", item_ids[0], relation=1)
            responses = pool.drain()
            # The pong is read after every result frame sent before it.
            assert pool.ping_all(timeout=10.0) == 1
            responses += pool.responses()
        finally:
            pool.shutdown()
        assert [(r.request_id, r.outcome, r.payload) for r in responses] == [
            (request_id, STATUS_OK, 0.5)
        ]
        assert pool.metrics.counter("pool.duplicates_dropped").value == 2
        assert pool.metrics.counter("pool.worker_deaths").value == 0


@pytest.fixture()
def checked(monkeypatch):
    """Every page key ``check_page`` is called with, in call order."""
    seen = []
    check = EmbeddingStore.check_page

    def recording(self, key, *, quarantine=True):
        seen.append(key)
        return check(self, key, quarantine=quarantine)

    monkeypatch.setattr(EmbeddingStore, "check_page", recording)
    return seen


class TestIdleScrub:
    """``Supervisor.tick``'s page sweep.  An idle tick of a pool that was
    never started is just the sweep, so most of these fork nothing."""

    @pytest.fixture()
    def paged(self, tmp_path, reference):
        """A server snapshot with several small pages in every shard."""
        path = tmp_path / "paged"
        reference.save_store(path, num_shards=3, page_bytes=128).close()
        return path

    @staticmethod
    def sweeper(path, pages_per_tick):
        return Supervisor(
            path,
            PoolConfig(num_workers=1, scrub_pages_per_tick=pages_per_tick),
            registry=MetricsRegistry(),
        )

    @staticmethod
    def page_keys(path):
        store = EmbeddingStore.open(path)
        try:
            return store.iter_page_keys()
        finally:
            store.close()

    @staticmethod
    def count(pool, name):
        return pool.metrics.counter(name).value

    def test_ticks_cover_the_store_exactly_once_per_sweep(self, paged, checked):
        keys = self.page_keys(paged)
        pool = self.sweeper(paged, 3)
        for _ in range(-(-2 * len(keys) // 3)):
            pool.tick()
        pool.shutdown()
        # Each wrap checks every page once, in sweep order.
        assert checked[: len(keys)] == keys
        assert checked[len(keys) : 2 * len(keys)] == keys
        assert checked == (keys * 3)[: len(checked)]

    def test_cursor_wraps_and_persists_across_ticks(self, paged, checked):
        keys = self.page_keys(paged)
        pool = self.sweeper(paged, len(keys) - 1)
        pool.tick()
        pool.tick()
        # A tick never checks a page twice, however large its slice.
        big = self.sweeper(paged, len(keys) + 5)
        big.tick()
        pool.shutdown()
        big.shutdown()
        assert checked == keys[:-1] + keys[-1:] + keys[:-2] + keys
        assert self.count(big, "store.scrub_pages") == len(keys)

    def test_clean_store_sweeps_clean(self, paged):
        pool = self.sweeper(paged, 4)
        for _ in range(10):
            pool.tick()
        pool.shutdown()
        assert self.count(pool, "pool.idle_scrub_ticks") == 10
        assert self.count(pool, "store.scrub_pages") == 40
        assert self.count(pool, "store.crc_failures") == 0
        assert self.count(pool, "store.pages_quarantined") == 0

    def test_negative_pages_per_tick_refused(self, paged):
        with pytest.raises(ValueError, match="scrub_pages_per_tick"):
            PoolConfig(scrub_pages_per_tick=-1)
        idle = self.sweeper(paged, 0)
        idle.tick()
        idle.shutdown()
        assert self.count(idle, "pool.idle_scrub_ticks") == 0
        assert self.count(idle, "store.scrub_pages") == 0

    def test_planted_damage_is_quarantined_in_background(self, paged):
        """Idle ticks alone find and quarantine a bad page, without a
        single foreground read."""
        flip_byte(paged / "entity_table-0001.bin")
        pool = self.sweeper(paged, 3)
        for _ in range(-(-len(self.page_keys(paged)) // 3)):
            pool.tick()
        pool.shutdown()
        assert self.count(pool, "store.crc_failures") == 1
        assert self.count(pool, "store.pages_quarantined") == 1
        # Zero foreground interference: no cache traffic at all.
        assert self.count(pool, "store.page_hits") == 0
        assert self.count(pool, "store.page_faults") == 0

    def test_quarantined_page_fails_future_reads(self, paged):
        """A page the sweep quarantines stays unreadable on the handle it
        swept: every later read of one of its rows is refused."""
        flip_byte(paged / "entity_table-0001.bin")
        pool = self.sweeper(paged, len(self.page_keys(paged)))
        try:
            pool.tick()
            store = pool._store  # the sweep's own handle; workers open theirs
            rows = store.quarantined_rows("entity_table")
            assert rows
            for row in (rows[0], rows[-1]):
                with pytest.raises(QuarantinedRowError):
                    store.read_row("entity_table", row)
        finally:
            pool.shutdown()
        assert self.count(pool, "store.pages_quarantined") == 1

    def test_second_sweep_does_not_requarantine(self, paged):
        flip_byte(paged / "entity_table-0001.bin")
        keys = self.page_keys(paged)
        pool = self.sweeper(paged, len(keys))
        pool.tick()
        pool.tick()
        pool.shutdown()
        assert self.count(pool, "store.scrub_pages") == 2 * len(keys)
        assert self.count(pool, "store.crc_failures") == 1
        assert self.count(pool, "store.pages_quarantined") == 1

    def test_idle_ticks_scrub_the_store(self, store_dir):
        supervisor = Supervisor(
            store_dir,
            PoolConfig(num_workers=1, scrub_pages_per_tick=4),
            registry=MetricsRegistry(),
        )
        supervisor.start()
        try:
            for _ in range(3):
                supervisor.tick()
            assert supervisor.metrics.counter("pool.idle_scrub_ticks").value == 3
            assert supervisor.metrics.counter("store.scrub_pages").value == 12
        finally:
            supervisor.shutdown()

    def test_sweep_reports_damage_but_protects_no_read(
        self, tmp_path, reference, item_ids
    ):
        """The sweep runs on the supervisor's own store handle: it counts
        a damaged page in the pool registry, and the worker, which opened
        its own store, still finds the damage through its own CRC."""
        store_dir = tmp_path / "damaged"
        reference.save_store(store_dir, num_shards=2, page_bytes=512).close()
        flip_byte(store_dir / "entity_table-0000.bin")  # page 0: rows 0-7
        pool = Supervisor(
            store_dir,
            PoolConfig(num_workers=1, scrub_pages_per_tick=4),
            registry=MetricsRegistry(),
        )
        pool.start()
        try:
            pool.tick()  # checks pages 0-3 of entity_table, first in sweep order
            assert pool.metrics.counter("store.crc_failures").value == 1
            assert pool.metrics.counter("store.pages_quarantined").value == 1
            damaged = ask(pool, "serve", item_ids[0])
        finally:
            pool.shutdown()
        assert damaged.outcome == "quarantined"
        assert damaged.payload == ("entity_table", item_ids[0], 0, 0)


class TestRunBatch:
    def test_run_batch_mixes_ok_and_unknown(self, reference, item_ids):
        items = [(0, item_ids[0], -1, None), (1, 10_000, -1, None)]
        results = run_batch(reference, "serve", 10, items)
        statuses = {request_id: status for request_id, status, _ in results}
        assert statuses == {0: STATUS_OK, 1: STATUS_UNKNOWN}

    def test_run_batch_exist_uses_fused_kernel(self, reference, item_ids):
        items = [(i, entity, 1, None) for i, entity in enumerate(item_ids[:4])]
        results = run_batch(reference, "exist", 10, items)
        expected = reference.relation_existence_scores(
            np.array(item_ids[:4]), np.ones(4, dtype=np.int64)
        )
        for (request_id, status, payload), want in zip(results, expected):
            assert status == STATUS_OK
            assert payload == float(want)
