"""The supervision tree: fork, monitor, restart, replay, fail over.

:class:`Supervisor` owns N worker processes forked over one
:class:`~repro.store.EmbeddingStore` directory.  Each worker opens the
store read-only (its own mmaps, page cache, and quarantine set) and is
the affinity target for the entities whose
:func:`~repro.serving.protocol.shard_of` maps to it; because every
worker can read every row, that affinity is a locality optimization —
failing a request over to the next live sibling is always correct.

Exactly-once semantics under crashes come from three rules:

1. **One ledger of what is owed.**  A submitted request is pending,
   keyed by its id, until its one response is recorded; the response
   is then handed out (by :meth:`Supervisor.responses` or
   :meth:`Supervisor.drain`) and the pool keeps nothing of it.  A result
   for an id that is not pending — already answered, or never issued
   — is counted under ``pool.duplicates_dropped`` and dropped.
2. **Drain before replay.**  When a worker dies, every *complete*
   response frame still sitting in its socket buffer is credited
   first; only the requests still pending are orphans.  An orphan is
   replayed to the next live sibling under its original request id
   — or failed fast (outcome ``"deadline"`` /
   ``"failed"``) if its virtual deadline passed or its attempt budget
   is spent; a batch with no live worker to go to fails as
   ``"failed"`` too, one ``pool.failfast_no_route`` per request.
   Nothing is silently dropped, nothing runs twice.
3. **Restart is async.**  The dead worker is re-forked immediately but
   routes no traffic until its ``("ready", ...)`` handshake; in the
   interim its shard's requests fail over to siblings.

Blocking reads carry a real-time ``select`` timeout purely as a hang
backstop (a SIGKILLed worker produces an immediate EOF; the timeout
only matters for a *wedged* worker, which is then treated as dead).
Request deadlines, coalescing delays, and the chaos/loadtest drivers
all run on the virtual StepClock, so drill outcomes are deterministic.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import socket as socketlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.service import SnapshotError, server_store_geometry
from ..obs.metrics import MetricsRegistry
from ..ops import OPS
from ..reliability.retry import RPCError, StepClock
from ..store import EmbeddingStore
from .coalescer import Batch, Coalescer, CoalescerConfig
from .protocol import (
    PoolRequest,
    PoolResponse,
    ProtocolError,
    STATUS_DEADLINE,
    STATUS_OK,
    drain_frames,
    recv_frame,
    send_frame,
    shard_of,
)
from .worker import worker_main

#: Worker lifecycle states.
DOWN, STARTING, UP, DEAD = "down", "starting", "up", "dead"

#: Dispatches per request: the original plus one replay to a sibling.
MAX_ATTEMPTS = 2
#: Real seconds a blocking read (or the ready handshake) waits before
#: the worker it waits on is treated as wedged.
IO_TIMEOUT = 30.0
#: Restarts per worker slot before the supervisor gives up on it.
RESTART_LIMIT = 8
#: Virtual seconds a request submitted without a ``budget`` may take.
DEADLINE_BUDGET = 64.0


class PoolError(RPCError):
    """The pool cannot start: its store is not a server snapshot, or a
    worker fails its ready handshake.

    Once started the pool answers instead of raising: a request it
    cannot serve gets a terminal ``"failed"`` / ``"deadline"`` response,
    which a :class:`~repro.reliability.PKGMGateway` answers as
    ``"rpc-error"`` / ``"deadline"``.
    """


@dataclass(frozen=True)
class PoolConfig:
    """Knobs for one supervised worker pool."""

    num_workers: int = 2
    max_batch: int = 16
    max_delay: float = 0.002  # virtual seconds, see Coalescer
    cache_pages: int = 64  # per-worker page-cache budget
    scrub_pages_per_tick: int = 0  # 0 disables the idle page sweep

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.scrub_pages_per_tick < 0:
            raise ValueError("scrub_pages_per_tick must be >= 0")


class WorkerHandle:
    """Supervisor-side state of one worker slot."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.sock = None
        self.state = DOWN
        self.inflight: Dict[int, PoolRequest] = {}
        self.restarts = 0
        self.served_total = 0  # last reported by a pong
        self.pong_seq = -1

    @property
    def routable(self) -> bool:
        return self.state == UP


class Supervisor:
    """A supervised multi-process worker pool over one embedding store."""

    def __init__(
        self,
        store_dir: Union[str, Path],
        config: Optional[PoolConfig] = None,
        *,
        clock: Optional[StepClock] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.config = config if config is not None else PoolConfig()
        self.clock = clock if clock is not None else StepClock()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.coalescer = Coalescer(
            self.clock,
            CoalescerConfig(
                max_batch=self.config.max_batch,
                max_delay=self.config.max_delay,
            ),
            registry=self.metrics,
        )
        # The supervisor reads only geometry/metadata from the store
        # (workers own the data plane); the handle stays open when the
        # idle page sweep needs pages to check.  Each worker opens its
        # own store, so what this handle quarantines no worker sees.
        store = EmbeddingStore.open(self.store_dir, registry=self.metrics)
        try:
            self.k, self.dim, self.num_entities, self.num_relations = (
                server_store_geometry(store)
            )
        except SnapshotError as error:
            store.close()
            raise PoolError(
                f"store at {self.store_dir} is not a pkgm-server snapshot: {error}"
            ) from error
        self._store: Optional[EmbeddingStore] = None
        if self.config.scrub_pages_per_tick > 0:
            self._store = store
            # A sealed store never changes, so the sweep order is taken once.
            self._scrub_keys = store.iter_page_keys()
            self._scrub_cursor = 0
        else:
            store.close()
        self.workers = [
            WorkerHandle(index) for index in range(self.config.num_workers)
        ]
        self._ctx = multiprocessing.get_context("fork")
        self._pending: Dict[int, PoolRequest] = {}
        self._emitted: List[PoolResponse] = []
        self._next_id = 0
        self._ping_seq = 0
        self._requests_c = self.metrics.counter(
            "pool.requests", help="Requests submitted to the pool"
        )
        self._responses_c = self.metrics.counter(
            "pool.responses", help="Terminal responses recorded"
        )
        self._batches_c = self.metrics.counter(
            "pool.batches_sent", help="Batches dispatched to workers"
        )
        self._deaths_c = self.metrics.counter(
            "pool.worker_deaths", help="Worker crashes / heartbeat losses"
        )
        self._restarts_c = self.metrics.counter(
            "pool.worker_restarts", help="Workers re-forked after a death"
        )
        self._replays_c = self.metrics.counter(
            "pool.replays", help="Orphaned requests replayed to a sibling"
        )
        self._failfast_deadline_c = self.metrics.counter(
            "pool.failfast_deadline", help="Requests failed fast: deadline"
        )
        self._failfast_attempts_c = self.metrics.counter(
            "pool.failfast_attempts", help="Requests failed fast: attempts spent"
        )
        self._failfast_no_route_c = self.metrics.counter(
            "pool.failfast_no_route", help="Requests failed fast: no live worker"
        )
        self._duplicates_c = self.metrics.counter(
            "pool.duplicates_dropped", help="Late results for terminal requests"
        )
        self._failovers_c = self.metrics.counter(
            "pool.failovers", help="Batches routed off their primary shard"
        )
        self._worker_deadline_c = self.metrics.counter(
            "pool.worker_deadline_cancellations",
            help="Items a worker cancelled at its deadline check",
        )
        self._heartbeats_c = self.metrics.counter(
            "pool.heartbeats", help="Heartbeat pings sent"
        )
        self._heartbeat_losses_c = self.metrics.counter(
            "pool.heartbeat_losses", help="Heartbeats that timed out"
        )
        self._idle_scrub_c = self.metrics.counter(
            "pool.idle_scrub_ticks", help="Idle ticks spent scrubbing"
        )
        self._workers_up_g = self.metrics.gauge(
            "pool.workers_up", help="Workers in the routable (up) state"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork every worker and wait for all ready handshakes."""
        for handle in self.workers:
            self._spawn(handle)
        self._await_ready(self.workers)

    def shutdown(self) -> None:
        """Stop every worker and close the pool."""
        for handle in self.workers:
            if handle.sock is not None:
                try:
                    send_frame(handle.sock, ("shutdown",))
                except OSError:  # repro-lint: disable=bare-except
                    pass  # best-effort farewell; the peer may already be dead
            if handle.process is not None:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=5.0)
            if handle.sock is not None:
                handle.sock.close()
                handle.sock = None
            handle.state = DOWN
        self._update_up_gauge()
        if self._store is not None:
            self._store.close()
            self._store = None

    def _spawn(self, handle: WorkerHandle) -> None:
        parent_sock, child_sock = socketlib.socketpair()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                child_sock,
                str(self.store_dir),
                handle.index,
                self.config.cache_pages,
            ),
            daemon=True,
        )
        process.start()
        child_sock.close()
        handle.process = process
        handle.sock = parent_sock
        handle.state = STARTING
        handle.inflight = {}

    def _await_ready(self, handles: List[WorkerHandle]) -> None:
        waiting = [h for h in handles if h.state == STARTING]
        while waiting:
            socks = [h.sock for h in waiting]
            readable, _, _ = select.select(socks, [], [], IO_TIMEOUT)
            if not readable:
                for handle in waiting:
                    self._on_worker_death(handle, reason="start-timeout")
                raise PoolError(
                    f"{len(waiting)} worker(s) missed the ready handshake"
                )
            for handle in list(waiting):
                if handle.sock in readable:
                    self._read_one(handle)
            waiting = [h for h in handles if h.state == STARTING]
            dead = [h for h in handles if h.state == DEAD]
            if dead:
                raise PoolError(
                    f"worker(s) {[h.index for h in dead]} failed to start"
                )

    def _update_up_gauge(self) -> None:
        self._workers_up_g.set(sum(1 for h in self.workers if h.state == UP))

    # ------------------------------------------------------------------
    # Submission / dispatch
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        entity_id: int,
        relation: int = -1,
        k: int = 10,
        budget: Optional[float] = None,
    ) -> int:
        """Offer one request; returns its request id.

        A non-positive ``budget`` is rejected *before* any coalescing
        or dispatch with a terminal ``"deadline"`` outcome — the same
        pre-dispatch contract the gateway's retrieval path enforces.
        A kind that is not a row of :data:`~repro.ops.OPS` has no wire
        form and is a ``ValueError``.
        """
        if kind not in OPS:
            raise ValueError(f"unknown request kind {kind!r}")
        now = self.clock.now()
        effective = DEADLINE_BUDGET if budget is None else float(budget)
        request_id = self._next_id
        self._next_id += 1
        self._requests_c.inc()
        request = PoolRequest(
            request_id=request_id,
            kind=kind,
            entity_id=int(entity_id),
            relation=int(relation),
            k=int(k),
            deadline_at=now + effective,
            shard=shard_of(entity_id, self.config.num_workers),
        )
        if effective <= 0:
            self._failfast_deadline_c.inc()
            self._record(self._supervisor_outcome(request, "deadline"))
            return request_id
        self._pending[request_id] = request
        for batch in self.coalescer.offer(request):
            self._dispatch(batch)
        return request_id

    def pump(self) -> None:
        """Non-blocking housekeeping: flush due batches, read results."""
        for batch in self.coalescer.due():
            self._dispatch(batch)
        self._poll(timeout=0.0)

    def tick(self) -> None:
        """One idle tick: housekeeping plus a slice of the page sweep.

        When the pool is idle — no in-flight batches, nothing buffered —
        and ``scrub_pages_per_tick`` is set, the next that many pages go
        through :meth:`EmbeddingStore.check_page`, wrapping at the end
        of the store.  The sweep runs on the supervisor's own store
        handle, while every worker opens its own store in
        :func:`~repro.serving.worker.worker_main`: a damaged page it
        finds is counted (``store.crc_failures``,
        ``store.pages_quarantined``) in the pool registry, but no
        worker's quarantine changes.  The sweep reports latent damage;
        it protects no read — each worker quarantines a page on its own
        fault-time CRC.
        """
        self.pump()
        if (
            self._store is not None
            and not self._inflight_total()
            and not self.coalescer.pending()
        ):
            self._idle_scrub_c.inc()
            keys = self._scrub_keys
            for _ in range(min(self.config.scrub_pages_per_tick, len(keys))):
                self._store.check_page(keys[self._scrub_cursor])
                self._scrub_cursor = (self._scrub_cursor + 1) % len(keys)

    def outstanding(self) -> int:
        """Requests submitted but not yet terminal."""
        return len(self._pending)

    def responses(self) -> List[PoolResponse]:
        """Pop every terminal response recorded since the last call."""
        emitted, self._emitted = self._emitted, []
        return emitted

    def wait_any(self) -> None:
        """Block until at least one new response is recorded.

        Forces the coalescer when nothing is in flight (the blocking
        caller cannot advance virtual time, so waiting out ``max_delay``
        would deadlock).
        """
        before = self._responses_c.value
        while self._responses_c.value == before:
            if not self._inflight_total():
                batches = self.coalescer.flush_all()
                if not batches and not self._pending:
                    return
                for batch in batches:
                    self._dispatch(batch)
                continue
            self._poll(timeout=IO_TIMEOUT, hang_is_death=True)

    def drain(self) -> List[PoolResponse]:
        """Force-flush and answer everything outstanding."""
        while self._pending:
            self.wait_any()
        return self.responses()

    def _inflight_total(self) -> int:
        return sum(len(h.inflight) for h in self.workers)

    def _route(self, shard: int) -> Tuple[WorkerHandle, bool]:
        """The live worker for ``shard``: primary, else the next sibling."""
        for offset in range(self.config.num_workers):
            handle = self.workers[(shard + offset) % self.config.num_workers]
            if handle.routable:
                return handle, offset != 0
        starting = [h for h in self.workers if h.state == STARTING]
        if starting:
            self._await_ready(starting)
            return self._route(shard)
        raise PoolError("no live workers to route to")

    def _dispatch(self, batch: Batch) -> None:
        now = self.clock.now()
        live: List[PoolRequest] = []
        for request in batch.requests:
            if request.request_id not in self._pending:
                continue
            if now >= request.deadline_at:
                self._failfast_deadline_c.inc()
                self._record(self._supervisor_outcome(request, "deadline"))
                continue
            live.append(request)
        if not live:
            return
        try:
            handle, failed_over = self._route(batch.shard)
        except PoolError:
            for request in live:
                self._failfast_no_route_c.inc()
                self._record(self._supervisor_outcome(request, "failed"))
            return
        if failed_over:
            self._failovers_c.inc()
        # Each item carries its remaining budget for the worker's check.
        items = [
            (r.request_id, r.entity_id, r.relation, r.deadline_at - now)
            for r in live
        ]
        for request in live:
            handle.inflight[request.request_id] = request
        self._batches_c.inc()
        if self.tracer is not None:
            with self.tracer.span(
                "pool.batch",
                worker=handle.index,
                kind=batch.kind,
                size=len(items),
            ):
                self._send_batch(handle, batch, items)
        else:
            self._send_batch(handle, batch, items)

    def _send_batch(self, handle: WorkerHandle, batch: Batch, items) -> None:
        try:
            send_frame(handle.sock, ("batch", batch.kind, batch.k, items))
        except OSError:
            self._on_worker_death(handle, reason="send-error")

    # ------------------------------------------------------------------
    # Reading / completion
    # ------------------------------------------------------------------
    def _poll(self, timeout: float, hang_is_death: bool = False) -> None:
        socks = {
            h.sock: h
            for h in self.workers
            if h.sock is not None and h.state in (UP, STARTING)
        }
        if not socks:
            return
        readable, _, _ = select.select(list(socks), [], [], timeout)
        if not readable:
            if hang_is_death and timeout > 0:
                # Nothing read within the backstop while work is in
                # flight: the owing worker is wedged.  Treat every
                # worker with in-flight work as lost.
                for handle in list(socks.values()):
                    if handle.inflight:
                        self._heartbeat_losses_c.inc()
                        self._on_worker_death(handle, reason="hang")
            return
        for sock in readable:
            self._read_one(socks[sock])

    def _read_one(self, handle: WorkerHandle) -> None:
        try:
            message = recv_frame(handle.sock)
        except (OSError, ProtocolError):
            self._on_worker_death(handle, reason="torn-frame")
            return
        if message is None:
            self._on_worker_death(handle, reason="eof")
            return
        self._handle_frame(handle, message)

    def _handle_frame(self, handle: WorkerHandle, message) -> None:
        tag = message[0]
        if tag == "ready":
            handle.state = UP
            self._update_up_gauge()
            return
        if tag == "fail":
            self._on_worker_death(handle, reason="start-failure")
            return
        if tag == "pong":
            handle.pong_seq = int(message[1])
            handle.served_total = int(message[2])
            return
        if tag == "results":
            _, worker_id, results = message
            for request_id, status, payload, checksum in results:
                self._complete(
                    handle, worker_id, request_id, status, payload, checksum
                )

    def _complete(
        self,
        handle: WorkerHandle,
        worker_id: int,
        request_id: int,
        status,
        payload,
        checksum: int,
    ) -> None:
        handle.inflight.pop(request_id, None)
        request = self._pending.get(request_id)
        if request is None:
            # Already answered, or never issued: rule 1, count and drop.
            self._duplicates_c.inc()
            return
        if status == STATUS_DEADLINE:
            self._worker_deadline_c.inc()
        self._record(
            PoolResponse(
                request_id=request_id,
                kind=request.kind,
                entity_id=request.entity_id,
                relation=request.relation,
                outcome=status,
                payload=payload,
                # The CRC decode checked the received bytes against.
                checksum=checksum if status == STATUS_OK else 0,
                worker=worker_id,
                replayed=request.attempts > 0,
            )
        )

    def _record(self, response: PoolResponse) -> None:
        self._pending.pop(response.request_id, None)
        self._emitted.append(response)
        self._responses_c.inc()

    def _supervisor_outcome(self, request: PoolRequest, outcome: str) -> PoolResponse:
        return PoolResponse(
            request_id=request.request_id,
            kind=request.kind,
            entity_id=request.entity_id,
            relation=request.relation,
            outcome=outcome,
            payload=None,
            checksum=0,
            worker=-1,
            replayed=request.attempts > 0,
        )

    # ------------------------------------------------------------------
    # Death, replay, restart
    # ------------------------------------------------------------------
    def _on_worker_death(self, handle: WorkerHandle, reason: str) -> None:
        if handle.state == DEAD:
            return
        was_starting = handle.state == STARTING
        handle.state = DEAD
        self._deaths_c.inc()
        self._update_up_gauge()
        if handle.sock is not None:
            # Credit every response the worker finished writing before
            # it died — rule 2: drain before replay.
            for message in drain_frames(handle.sock):
                self._handle_frame(handle, message)
            handle.sock.close()
            handle.sock = None
        if handle.process is not None:
            handle.process.join(timeout=5.0)
        orphans = [
            handle.inflight[request_id]
            for request_id in sorted(handle.inflight)
            if request_id in self._pending
        ]
        handle.inflight = {}
        now = self.clock.now()
        replayable: List[PoolRequest] = []
        for request in orphans:
            if now >= request.deadline_at:
                self._failfast_deadline_c.inc()
                self._record(self._supervisor_outcome(request, "deadline"))
            elif request.attempts + 1 >= MAX_ATTEMPTS:
                self._failfast_attempts_c.inc()
                self._record(self._supervisor_outcome(request, "failed"))
            else:
                replayable.append(request)
        if not was_starting and handle.restarts < RESTART_LIMIT:
            handle.restarts += 1
            self._restarts_c.inc()
            self._spawn(handle)
        if replayable:
            self._replay(replayable)

    def _replay(self, requests: List[PoolRequest]) -> None:
        """Re-dispatch orphans immediately, grouped like the coalescer."""
        groups: Dict[Tuple[int, str, int], List[PoolRequest]] = {}
        for request in requests:
            self._replays_c.inc()
            retried = replace(request, attempts=request.attempts + 1)
            self._pending[request.request_id] = retried
            key = (retried.shard, retried.kind, retried.k)
            groups.setdefault(key, []).append(retried)
        for (shard, kind, k), members in sorted(groups.items()):
            self._dispatch(
                Batch(shard=shard, kind=kind, k=k, requests=tuple(members))
            )

    # ------------------------------------------------------------------
    # Heartbeats / chaos hooks
    # ------------------------------------------------------------------
    def ping_all(self, timeout: Optional[float] = None) -> int:
        """Heartbeat every routable worker; returns pongs received.

        A worker that neither answers nor EOFs within ``timeout`` real
        seconds is declared dead (its in-flight work replays or fails
        fast exactly as for a crash).
        """
        timeout = IO_TIMEOUT if timeout is None else timeout
        self._ping_seq += 1
        sequence = self._ping_seq
        targets = [h for h in self.workers if h.state == UP]
        for handle in targets:
            self._heartbeats_c.inc()
            try:
                send_frame(handle.sock, ("ping", sequence))
            except OSError:
                self._on_worker_death(handle, reason="send-error")
        pongs = 0
        for handle in targets:
            if handle.state != UP:
                continue
            while handle.pong_seq < sequence and handle.state == UP:
                readable, _, _ = select.select([handle.sock], [], [], timeout)
                if not readable:
                    self._heartbeat_losses_c.inc()
                    self._on_worker_death(handle, reason="heartbeat")
                    break
                self._read_one(handle)
            if handle.pong_seq >= sequence:
                pongs += 1
        return pongs

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker process (the chaos harness's crash lever).

        Death is *not* marked here: the supervisor discovers it the
        same way it discovers a real crash — EOF on the socket — so the
        drill exercises the genuine detection path.
        """
        handle = self.workers[index]
        if handle.process is not None and handle.process.is_alive():
            os.kill(handle.process.pid, signal.SIGKILL)
            handle.process.join(timeout=5.0)

    def worker_pids(self) -> List[Optional[int]]:
        return [
            h.process.pid if h.process is not None else None for h in self.workers
        ]
