"""Child-process entry point: serve batched requests over one store.

A worker is forked by the :class:`~repro.serving.supervisor.Supervisor`
with one end of a ``socketpair``.  It opens the embedding store
read-only (its own mmap handles, its own page cache, its own
quarantine set — nothing is shared with the parent), announces
``("ready", ...)``, then answers ``("batch", ...)`` frames until EOF
or ``("shutdown",)``.

What a batch runs is its kind's row of :data:`repro.ops.OPS`: one
fused kernel call where the server has one (the coalescer groups by
``k`` so the whole batch shares one search), else one call per item.
Per-item failures — unknown ids, quarantined pages — degrade that one
item to an error status, never the batch and never the process; a
batch whose payloads are off their kind's wire layout answers every
item ``STATUS_ERROR``.

Everything here is deliberately crash-isolated: the function touches
no module-level state, never prints, and treats any socket error as
"the supervisor is gone" and exits.  Killing a worker with SIGKILL at
any instruction leaves the store files untouched (they are opened
read-only) and at most one torn frame in the socket, which the
supervisor's :func:`~repro.serving.protocol.drain_frames` discards.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.service import PKGMServer
from ..ops import OPS, OpSpec
from ..scenarios.service import WorkerScenarios
from ..store.errors import QuarantinedRowError
from .protocol import (
    ProtocolError,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_UNKNOWN,
    recv_frame,
    send_frame,
)

#: (request_id, entity_id, relation, budget) — one wire item of a
#: batch.  ``budget`` is the request's remaining virtual deadline at
#: dispatch; ``None`` means unbounded.
WireItem = Tuple[int, int, int, object]
#: (request_id, entity_id, relation) — an item past its deadline
#: check, the shape the kernel helpers consume.
LiveItem = Tuple[int, int, int]
#: (request_id, status, payload) — one wire result; an ``ok`` payload
#: is in the form its kind's :data:`~repro.ops.OPS` layout declares.
WireResult = Tuple[int, str, object]


def _expired(budget: object) -> bool:
    return budget is not None and float(budget) <= 0.0


def _run_item(
    spec: OpSpec, target, request_id: int, entity_id: int, relation: int, k: int
) -> WireResult:
    """One item through ``spec.call``; a failure degrades this item only."""
    try:
        payload = spec.wire(spec.call(target, int(entity_id), int(relation), int(k)))
    except QuarantinedRowError as error:
        # The fields needed to re-raise the error supervisor-side.
        info = (error.table, error.row, error.shard, error.page)
        return (request_id, STATUS_QUARANTINED, info)
    except (KeyError, IndexError):
        return (request_id, STATUS_UNKNOWN, None)
    except spec.errors as error:
        return (request_id, STATUS_ERROR, str(error))
    return (request_id, STATUS_OK, payload)


def _run_fused(
    spec: OpSpec, server, items: Sequence[LiveItem], k: int
) -> List[WireResult]:
    """The whole batch through ``spec.fused``, else item by item."""
    entities = [item[1] for item in items]
    relations = [item[2] for item in items]
    try:
        payloads = spec.fused(server, entities, relations, k)
    except (QuarantinedRowError, KeyError, IndexError):
        # One damaged page or one id the server refuses fails the fused
        # kernel; retry item-by-item so only the requests that actually
        # touch it degrade.
        return [_run_item(spec, server, *item, k) for item in items]
    return [
        (rid, STATUS_OK, payload) for (rid, _, _), payload in zip(items, payloads)
    ]


def run_batch(
    server, kind: str, k: int, items: Sequence[WireItem], scenarios=None
) -> List[WireResult]:
    """Answer one coalesced batch; every item gets exactly one result.

    Items whose deadline budget is already spent are cancelled here —
    before any kernel or store page is touched — with
    ``STATUS_DEADLINE``; only the still-live remainder runs, through
    the kind's :data:`~repro.ops.OPS` entry (a batch frame names only
    kinds the table has).  Scenario kinds go through the optional
    per-process ``scenarios`` engines; without them every scenario item
    answers ``STATUS_ERROR``.
    """
    results: List[WireResult] = [
        (rid, STATUS_DEADLINE, None)
        for rid, _, _, budget in items
        if _expired(budget)
    ]
    live = [
        (rid, entity, relation)
        for rid, entity, relation, budget in items
        if not _expired(budget)
    ]
    if not live:
        return results
    spec = OPS[kind]
    if spec.scenario and scenarios is None:
        results.extend(
            (rid, STATUS_ERROR, "worker has no scenario engines")
            for rid, _, _ in live
        )
    elif spec.fused is not None:
        results.extend(_run_fused(spec, server, live, k))
    else:
        target = scenarios if spec.scenario else server
        results.extend(_run_item(spec, target, *item, k) for item in live)
    return results


def worker_main(
    sock, store_dir: str, worker_id: int, cache_pages: int = 64
) -> None:
    """Process entry: open the store, then serve frames until EOF."""
    try:
        server = PKGMServer.from_store(store_dir, cache_pages=cache_pages)
    except Exception as error:
        try:
            send_frame(sock, ("fail", int(worker_id), repr(error)))
        except OSError:  # repro-lint: disable=bare-except
            pass  # supervisor hung up first; it will see EOF regardless
        return
    scenarios = WorkerScenarios(server, store_dir)
    served = 0
    try:
        send_frame(sock, ("ready", int(worker_id), int(server.num_entities)))
        while True:
            message = recv_frame(sock)
            if message is None:
                return
            tag = message[0]
            if tag == "shutdown":
                return
            if tag == "ping":
                send_frame(sock, ("pong", message[1], served))
                continue
            if tag == "batch":
                _, kind, k, items = message
                results = run_batch(server, kind, int(k), items, scenarios)
                served += len(items)
                try:
                    send_frame(sock, ("results", int(worker_id), results))
                except ProtocolError as error:
                    # A payload off its kind's layout: answer the batch
                    # with errors rather than die and be replayed into
                    # the same failure on a sibling.
                    failed = [(r[0], STATUS_ERROR, f"no wire form: {error}") for r in results]
                    send_frame(sock, ("results", int(worker_id), failed))
                continue
            # A worker-to-supervisor tag sent the other way: protocol
            # drift, not recoverable.
            return
    except (OSError, ProtocolError):
        # The supervisor died or the link tore: exit quietly, the
        # process has no state worth saving.
        return
