"""Reliability engineering for the PKGM training and serving stack.

The paper's system (50 parameter servers, 200 workers, billions of
service calls) treats failure as the steady state; this package makes
the reproduction survive the same weather, deterministically:

* :mod:`repro.reliability.faults` — seeded fault injection on the PS
  pull/push channel (push drops, transient RPC errors, shard crashes)
  and on-disk store damage;
* :mod:`repro.reliability.retry` — capped exponential backoff with
  seeded jitter over a virtual clock, wrapping the PS channel;
* :mod:`repro.reliability.checkpoint` — crash-consistent checkpoints
  (atomic tmp-write → fsync → rename, checksummed manifests) with
  bit-exact RNG-state resume;
* :mod:`repro.reliability.admission` — overload protection: token
  bucket, AIMD concurrency limit, bounded priority queue;
* :mod:`repro.reliability.gateway` — :class:`PKGMGateway`, the
  overload-safe front door with deadline propagation, hedged requests
  and graceful drain/swap — the one producer of degraded answers: a
  shed, late or failed request is answered with its kind's flagged
  ``degraded=True`` payload and a reason (``rpc-error``,
  ``unknown-id``, ``quarantined``, ``deadline``, ...), never an
  exception;
* :mod:`repro.reliability.loadtest` — seeded open-loop traffic
  profiles (spike / ramp / sustained) with deterministic reports.
"""

from .admission import (
    AdmissionAction,
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    AIMDLimiter,
    BoundedPriorityQueue,
    TokenBucket,
)
from .checkpoint import (
    CheckpointError,
    CheckpointManager,
    atomic_save_npz,
    atomic_write_bytes,
    restore_rng,
    rng_state,
)
from .faults import (
    CrashEvent,
    FaultPlan,
    FaultyParameterServer,
    StorageFaultPlan,
    StorageFaultStats,
    inject_storage_faults,
)
from .gateway import (
    GatewayConfig,
    LatencyModel,
    PKGMGateway,
    RetrievalPayload,
    TimedBackend,
)
from .loadtest import PROFILES, LoadTestConfig, LoadTestReport, run_loadtest
from .retry import (
    Retrier,
    RetryExhaustedError,
    RetryPolicy,
    RPCError,
    StepClock,
)

__all__ = [
    "AIMDLimiter",
    "AdmissionAction",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "BoundedPriorityQueue",
    "CheckpointError",
    "CheckpointManager",
    "CrashEvent",
    "FaultPlan",
    "FaultyParameterServer",
    "GatewayConfig",
    "LatencyModel",
    "LoadTestConfig",
    "LoadTestReport",
    "PKGMGateway",
    "RetrievalPayload",
    "PROFILES",
    "RPCError",
    "Retrier",
    "RetryExhaustedError",
    "RetryPolicy",
    "StepClock",
    "StorageFaultPlan",
    "StorageFaultStats",
    "TimedBackend",
    "TokenBucket",
    "atomic_save_npz",
    "atomic_write_bytes",
    "inject_storage_faults",
    "restore_rng",
    "rng_state",
    "run_loadtest",
]
