"""Deterministic, seeded fault injection for the PS pull/push channel.

The paper's deployment (50 parameter servers, 200 workers, billions of
service calls) lives with dropped RPCs, failed calls and crashed shards
as routine events.  This module injects those faults into the
:class:`repro.distributed.ParameterServer` channel —
*deterministically*: a :class:`FaultPlan` is seeded, so the same plan
over the same workload produces the same fault sequence, making chaos
tests and ablation benches reproducible.  (Stale reads are not a fault
family here: ``DistributedConfig.staleness`` models them.)

Fault classes modeled:

* **push drop** — the update RPC is lost; the server never applies it
  (silent, like a lost UDP datagram or a timed-out write after commit);
* **transient RPC error** — :class:`repro.reliability.retry.RPCError`
  surfaces to the caller, who is expected to retry;
* **shard crash** — a shard process dies and restarts empty-handed:
  its rows lose server-side Adam state and revert to their *initially
  registered* values (what a restart without a checkpoint recovers).
  Trainers repair the damage by restoring a checkpoint.

:func:`inject_storage_faults` is the on-disk analogue: seeded torn
writes, bit flips and lost fsync tails in a store's shard files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from .retry import RPCError


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled shard crash, pinned to an (epoch, batch) tick."""

    epoch: int
    batch: int
    shard: int

    def __post_init__(self) -> None:
        if self.epoch < 0 or self.batch < 0 or self.shard < 0:
            raise ValueError("epoch, batch and shard must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded description of what goes wrong, and how often."""

    seed: int = 0
    push_drop_prob: float = 0.0
    rpc_error_prob: float = 0.0
    crashes: Tuple[CrashEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in ("push_drop_prob", "rpc_error_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        object.__setattr__(self, "crashes", tuple(self.crashes))

    def describe(self) -> str:
        """One-line human summary for logs and bench tables."""
        parts = [
            f"seed={self.seed}",
            f"drop={self.push_drop_prob:.0%}",
            f"rpc-err={self.rpc_error_prob:.0%}",
            f"crashes={len(self.crashes)}",
        ]
        return " ".join(parts)


@dataclass
class FaultStats:
    """What the harness actually injected (for reports and asserts)."""

    pushes_dropped: int = 0
    rpc_errors: int = 0
    shard_crashes: int = 0

    def as_row(self) -> str:
        return (
            f"faults: dropped {self.pushes_dropped} | "
            f"rpc-errors {self.rpc_errors} | crashes {self.shard_crashes}"
        )


class FaultyParameterServer:
    """Wraps a ``ParameterServer`` with a seeded :class:`FaultPlan`.

    Exposes the full server surface (register/pull/push/snapshot/...)
    so :class:`repro.distributed.PKGMWorker` and the trainer use it
    unchanged.  All randomness flows through one ``default_rng(seed)``
    stream, so the injected fault sequence is a pure function of the
    plan and the call sequence.
    """

    def __init__(self, server, plan: FaultPlan) -> None:
        self.server = server
        self.plan = plan
        self.stats = FaultStats()
        self._rng = np.random.default_rng(plan.seed)
        # Initial registered values: what a crashed shard restarts with.
        self._initial: Dict[str, np.ndarray] = {}

    # -- plumbing -------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.server.num_shards

    @property
    def pull_count(self) -> int:
        return self.server.pull_count

    @property
    def push_count(self) -> int:
        return self.server.push_count

    def register(self, name: str, table: np.ndarray) -> None:
        self.server.register(name, table)
        self._initial[name] = self.server.snapshot(name)

    def shard_of(self, row: int) -> int:
        return self.server.shard_of(row)

    def shard_sizes(self, name: str):
        return self.server.shard_sizes(name)

    def snapshot(self, name: str) -> np.ndarray:
        return self.server.snapshot(name)

    def renormalize_rows(self, name: str, max_norm: float = 1.0) -> None:
        self.server.renormalize_rows(name, max_norm)

    def table_names(self):
        return self.server.table_names()

    def state(self, name: str):
        return self.server.state(name)

    def load_state(self, name: str, state) -> None:
        self.server.load_state(name, state)

    # -- faulted channel ------------------------------------------------
    def _maybe_rpc_error(self, op: str) -> None:
        if self.plan.rpc_error_prob and (
            float(self._rng.random()) < self.plan.rpc_error_prob
        ):
            self.stats.rpc_errors += 1
            raise RPCError(f"injected transient failure during {op}")

    def pull(self, name: str, rows: np.ndarray) -> np.ndarray:
        self._maybe_rpc_error(f"pull({name})")
        return self.server.pull(name, rows)

    def push(self, name: str, rows: np.ndarray, gradients: np.ndarray) -> None:
        self._maybe_rpc_error(f"push({name})")
        if self.plan.push_drop_prob and (
            float(self._rng.random()) < self.plan.push_drop_prob
        ):
            self.stats.pushes_dropped += 1
            return
        self.server.push(name, rows, gradients)

    # -- crash model ----------------------------------------------------
    def crash_shard(self, shard: int) -> None:
        """Kill and restart one shard without a checkpoint.

        The restarted process recovers only what registration gave it:
        parameter rows revert to their initial values and the Adam
        moments/step counters are zeroed.  Rows on other shards are
        untouched.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range")
        self.stats.shard_crashes += 1
        for name in self.server.table_names():
            state = self.server.state(name)
            rows = np.arange(len(state["table"]))
            mask = rows % self.num_shards == shard
            state["table"][mask] = self._initial[name][mask]
            state["m"][mask] = 0.0
            state["v"][mask] = 0.0
            state["step"][mask] = 0
            self.server.load_state(name, state)


# ----------------------------------------------------------------------
# Storage faults: what disks and crashed writers do to store files
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StorageFaultPlan:
    """A seeded description of on-disk damage to inject into a store.

    Four physically motivated fault classes, applied to the shard files
    (and optionally the manifest) of a :class:`repro.store`
    directory:

    * **torn write** — a crash mid-write leaves a shard file truncated
      at some byte ``k``; every page at or past the tear reads short;
    * **bit flip** — media/bus corruption flips one bit at offset ``j``
      of a shard file; exactly one page fails its CRC;
    * **truncated manifest** — the crash hit the manifest itself; the
      store must refuse to open rather than trust half a description;
    * **lost fsync tail** — a write that was acknowledged but never
      durably flushed: the final 64 bytes of a shard file read as
      zeros after the "power loss".

    All target selection and offsets flow from one
    ``default_rng(seed)`` stream over the *sorted* file list, so the
    same plan over the same store damages the same bytes — the property
    the storage-chaos gate diffs across runs.
    """

    seed: int = 0
    torn_writes: int = 0
    bit_flips: int = 0
    truncate_manifest: bool = False
    lost_fsync_tails: int = 0

    def __post_init__(self) -> None:
        for name in ("torn_writes", "bit_flips", "lost_fsync_tails"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def describe(self) -> str:
        """One-line human summary for logs and chaos reports."""
        return (
            f"seed={self.seed} torn={self.torn_writes} "
            f"flips={self.bit_flips} "
            f"manifest={'torn' if self.truncate_manifest else 'ok'} "
            f"lost-tails={self.lost_fsync_tails}"
        )


@dataclass
class StorageFaultStats:
    """What was actually damaged: ``(kind, file, offset)`` events.

    ``events`` is ordered and offsets are exact, so two runs of the
    same plan can be compared record-for-record.
    """

    torn_writes: int = 0
    bit_flips: int = 0
    manifests_truncated: int = 0
    lost_fsync_tails: int = 0
    events: List[Tuple[str, str, int]] = field(default_factory=list)

    def as_row(self) -> str:
        return (
            f"storage-faults: torn {self.torn_writes} | "
            f"bit-flips {self.bit_flips} | "
            f"manifests {self.manifests_truncated} | "
            f"lost-tails {self.lost_fsync_tails}"
        )


def inject_storage_faults(
    directory: Union[str, Path], plan: StorageFaultPlan
) -> StorageFaultStats:
    """Damage the store under ``directory`` according to ``plan``.

    Shard files are discovered as ``*.bin`` under the directory, sorted
    by name; targets and offsets are drawn from ``default_rng(seed)``.
    Files are modified in place (this is the disk misbehaving, so no
    atomic-rename discipline here — that is the point).  Raises
    ``FileNotFoundError`` when the directory holds no shard files but
    shard damage was requested.
    """
    directory = Path(directory)
    stats = StorageFaultStats()
    rng = np.random.default_rng(plan.seed)
    shard_files = sorted(p for p in directory.glob("*.bin") if p.stat().st_size > 0)
    wants_shard_damage = (
        plan.torn_writes or plan.bit_flips or plan.lost_fsync_tails
    )
    if wants_shard_damage and not shard_files:
        raise FileNotFoundError(f"no non-empty shard files under {directory}")

    for _ in range(plan.torn_writes):
        target = shard_files[int(rng.integers(len(shard_files)))]
        size = target.stat().st_size
        tear_at = int(rng.integers(1, size)) if size > 1 else 0
        with open(target, "r+b") as handle:
            handle.truncate(tear_at)
        stats.torn_writes += 1
        stats.events.append(("torn-write", target.name, tear_at))

    for _ in range(plan.bit_flips):
        target = shard_files[int(rng.integers(len(shard_files)))]
        size = target.stat().st_size
        offset = int(rng.integers(size))
        bit = int(rng.integers(8))
        with open(target, "r+b") as handle:
            handle.seek(min(offset, max(0, size - 1)))
            byte = handle.read(1)
            if not byte:  # a prior tear shortened the file; flip byte 0
                handle.seek(0)
                byte = handle.read(1)
                offset = 0
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ (1 << bit)]))
        stats.bit_flips += 1
        stats.events.append(("bit-flip", target.name, offset * 8 + bit))

    for _ in range(plan.lost_fsync_tails):
        target = shard_files[int(rng.integers(len(shard_files)))]
        size = target.stat().st_size
        tail = min(64, size)
        with open(target, "r+b") as handle:
            handle.seek(size - tail)
            handle.write(b"\x00" * tail)
        stats.lost_fsync_tails += 1
        stats.events.append(("lost-fsync-tail", target.name, size - tail))

    if plan.truncate_manifest:
        manifest = directory / "manifest.json"
        if manifest.exists():
            size = manifest.stat().st_size
            with open(manifest, "r+b") as handle:
                handle.truncate(size // 2)
            stats.manifests_truncated += 1
            stats.events.append(("manifest-truncated", manifest.name, size // 2))

    return stats
