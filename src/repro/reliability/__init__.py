"""Reliability engineering for the PKGM training and serving stack.

The paper's system (50 parameter servers, 200 workers, billions of
service calls) treats failure as the steady state; this package makes
the reproduction survive the same weather, deterministically:

* :mod:`repro.reliability.faults` — seeded fault injection on the PS
  pull/push channel (push drops, transient RPC errors, shard crashes),
  on-disk store damage, and a flaky serving backend;
* :mod:`repro.reliability.retry` — exponential backoff with seeded
  jitter, retry budgets, and a closed/open/half-open circuit breaker
  over a virtual clock;
* :mod:`repro.reliability.checkpoint` — crash-consistent checkpoints
  (atomic tmp-write → fsync → rename, checksummed manifests) with
  bit-exact RNG-state resume;
* :mod:`repro.reliability.serving` — :class:`ResilientPKGMServer`, the
  never-raising degraded-mode serving facade;
* :mod:`repro.reliability.admission` — overload protection: token
  bucket, AIMD concurrency limit, bounded priority queue, deadlines;
* :mod:`repro.reliability.gateway` — :class:`PKGMGateway`, the
  overload-safe front door with deadline propagation, hedged requests
  and graceful drain/swap;
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
    Deadline,
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
    FlakyServingBackend,
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
    build_replicas,
)
from .loadtest import PROFILES, LoadTestConfig, LoadTestReport, run_loadtest
from .retry import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    Retrier,
    RetryExhaustedError,
    RetryPolicy,
    RPCError,
    StepClock,
)
from .serving import DegradationStats, ResilientPKGMServer, fallback_payload

__all__ = [
    "AIMDLimiter",
    "AdmissionAction",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "BoundedPriorityQueue",
    "CheckpointError",
    "CheckpointManager",
    "CircuitBreaker",
    "CircuitOpenError",
    "CrashEvent",
    "Deadline",
    "DeadlineExceededError",
    "DegradationStats",
    "FaultPlan",
    "FaultyParameterServer",
    "FlakyServingBackend",
    "GatewayConfig",
    "LatencyModel",
    "LoadTestConfig",
    "LoadTestReport",
    "PKGMGateway",
    "RetrievalPayload",
    "PROFILES",
    "RPCError",
    "ResilientPKGMServer",
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
    "build_replicas",
    "fallback_payload",
    "inject_storage_faults",
    "restore_rng",
    "rng_state",
    "run_loadtest",
]
