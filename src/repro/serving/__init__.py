"""``repro.serving`` — the supervised multi-process serving tier.

The single-process stack (PKGMServer → gateway)
survives bad inputs and simulated faults; this package makes it
survive *real* concurrency and *real* process death:

* :class:`Supervisor` forks N workers over one embedding-store
  directory, monitors them, restarts crashes, replays or fails-fast
  orphaned in-flight requests (exactly-once: one ledger of pending
  request ids, emptied as each is answered), and fails reads over to
  sibling workers during restarts;
* :class:`Coalescer` batches concurrent requests into the batched
  kernels (``nearest_tails_batch`` / ``relation_existence_scores``)
  under a max-batch/max-delay policy on the virtual StepClock;
* :func:`run_kill_drill` is the process-level chaos harness (SIGKILL
  under seeded load, byte-deterministic transcript) and
  :func:`run_serve_loadtest` the real-QPS measurement driver; both,
  and the obs and scenario pool workloads, run through the one seeded
  drive :func:`repro.serving.loadtest.drive` (submit, advance one
  tick, pump; optionally windowed).

The supervisor's surface is asynchronous (``submit``, ``pump``,
``responses``, ``drain``); ``PKGMGateway([pool])`` fronts it with
admission and deadlines and submits what it admits, so the coalescer
batches the gateway's traffic.
"""

from .chaos import ChaosConfig, ChaosReport, run_kill_drill
from .coalescer import Batch, Coalescer, CoalescerConfig
from .loadtest import ServeLoadConfig, ServeLoadReport, run_serve_loadtest
from .protocol import (
    PoolRequest,
    PoolResponse,
    ProtocolError,
    drain_frames,
    payload_checksum,
    recv_frame,
    send_frame,
    shard_of,
)
from .supervisor import PoolConfig, PoolError, Supervisor, WorkerHandle
from .worker import run_batch, worker_main

__all__ = [
    "Batch",
    "ChaosConfig",
    "ChaosReport",
    "Coalescer",
    "CoalescerConfig",
    "PoolConfig",
    "PoolError",
    "PoolRequest",
    "PoolResponse",
    "ProtocolError",
    "ServeLoadConfig",
    "ServeLoadReport",
    "Supervisor",
    "WorkerHandle",
    "drain_frames",
    "payload_checksum",
    "recv_frame",
    "run_batch",
    "run_kill_drill",
    "run_serve_loadtest",
    "send_frame",
    "shard_of",
    "worker_main",
]
