"""Crash-consistent checkpointing.

The paper's pre-training run holds 88 GB of parameters for 15 hours —
any real deployment checkpoints it.  This module provides the three
layers a crash-safe checkpoint needs:

* **atomic writes** — payloads land via tmp-file → flush → fsync →
  ``os.replace``; a crash mid-write leaves the previous file intact,
  never a torn one;
* **checksummed manifests** — every payload gets a sibling JSON
  manifest carrying its SHA-256 and array schema, written *after* the
  payload.  A checkpoint without a matching manifest (crash between
  the two writes) or with a checksum mismatch (disk corruption) is
  invisible to :meth:`CheckpointManager.latest`;
* **retention** — old snapshots are pruned, newest ``keep`` survive.

Metadata (epoch counters, RNG bit-generator state, loss history) rides
in the manifest so trainers can resume *bit-exactly*.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import re
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..nn.optim import LazyAdam


class CheckpointError(RuntimeError):
    """A checkpoint is missing, torn, or fails its checksum."""


# ----------------------------------------------------------------------
# Atomic write primitives
# ----------------------------------------------------------------------
#: Process-wide monotonic sequence for temp-file names.  ``count()`` is
#: atomic under the GIL (a single ``__next__``), so two threads writing
#: the same destination get distinct temp files without locks — and
#: without RNG, which determinism rules reserve for seeded streams.
_TMP_SEQUENCE = itertools.count()


def atomic_tmp_path(path: Union[str, Path]) -> Path:
    """A unique same-directory temp name for an atomic write to ``path``.

    Carries the pid *and* the process-wide sequence number so
    concurrent writers (threads or a streaming builder holding many
    open shards) never collide; callers must finish with
    ``os.replace(tmp, path)`` after flushing and fsyncing.
    """
    path = Path(path)
    return path.with_name(
        f".{path.name}.tmp.{os.getpid()}.{next(_TMP_SEQUENCE)}"
    )


def fsync_directory(path: Union[str, Path]) -> None:
    """fsync a directory entry so a completed rename survives power loss."""
    try:
        dir_fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fsync
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> str:
    """Write ``payload`` to ``path`` atomically; returns its SHA-256.

    The bytes go to a same-directory temp file which is flushed, fsynced
    and then renamed over the destination (``os.replace`` is atomic on
    POSIX and Windows).  The directory entry is fsynced too, so the
    rename itself survives power loss.
    """
    path = Path(path)
    tmp = atomic_tmp_path(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    fsync_directory(path.parent)
    return hashlib.sha256(payload).hexdigest()


def atomic_save_npz(path: Union[str, Path], arrays: Mapping[str, np.ndarray]) -> str:
    """Atomically write a compressed npz; returns the payload SHA-256."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **dict(arrays))
    return atomic_write_bytes(path, buffer.getvalue())


def sha256_of_file(path: Union[str, Path]) -> str:
    """Streaming SHA-256 of a file on disk."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# RNG state (de)hydration for bit-exact resume
# ----------------------------------------------------------------------
def rng_state(rng: np.random.Generator) -> Dict:
    """JSON-safe snapshot of a Generator's bit-generator state."""
    return json.loads(json.dumps(rng.bit_generator.state))


def restore_rng(rng: np.random.Generator, state: Mapping) -> None:
    """Restore a Generator to a state captured by :func:`rng_state`."""
    rng.bit_generator.state = dict(state)


# ----------------------------------------------------------------------
# The PKGM trainers' snapshot layout
# ----------------------------------------------------------------------
def save_tables(
    manager: "CheckpointManager",
    epoch: int,
    states: Mapping[str, Mapping[str, np.ndarray]],
    rng: np.random.Generator,
    losses: Iterable[float],
) -> None:
    """Write one trainer snapshot: every table's state plus resume metadata.

    ``states`` maps each table name to its :meth:`repro.nn.LazyAdam.state`;
    each array is stored as ``{table}.{key}`` (``table``, ``m``, ``v``,
    ``step``).  The manifest metadata holds the completed ``epoch``, the
    sampler RNG's state and the per-epoch ``losses``.  Both PKGM trainers
    (:class:`repro.core.PKGMTrainer` and the parameter-server one) write
    this one layout and read it back with :func:`load_tables`.
    """
    arrays = {
        f"{name}.{key}": value
        for name, state in states.items()
        for key, value in state.items()
    }
    manager.save(
        epoch,
        arrays,
        metadata={"epoch": epoch, "rng": rng_state(rng), "losses": list(losses)},
    )


def load_tables(
    manager: "CheckpointManager",
    names: Iterable[str],
    load: Callable[[str, Dict[str, np.ndarray]], None],
    rng: np.random.Generator,
) -> Tuple[int, List[float]]:
    """Restore the latest :func:`save_tables` snapshot of ``names``.

    Every array of every table is looked up before any is handed to
    ``load(name, state)``: a checkpoint in another layout fails with
    ``KeyError`` on the first name it lacks, changing nothing.  The RNG
    is restored last.  Returns ``(epoch, losses)``.
    """
    arrays, metadata = manager.load()
    states = {
        name: {key: arrays[f"{name}.{key}"] for key in LazyAdam.STATE_KEYS}
        for name in names
    }
    for name, state in states.items():
        load(name, state)
    restore_rng(rng, metadata["rng"])
    return int(metadata["epoch"]), [float(x) for x in metadata["losses"]]


# ----------------------------------------------------------------------
# Checkpoint manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """Numbered, checksummed, pruned snapshots in one directory.

    Layout per step ``s``::

        <dir>/<prefix>-<s:08d>.npz    payload (atomic)
        <dir>/<prefix>-<s:08d>.json   manifest: sha256 + schema + metadata

    The manifest is written strictly after the payload; a crash between
    the two leaves an orphan payload that :meth:`steps` ignores, which
    is what makes save itself crash-consistent.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        prefix: str = "ckpt",
        keep: int = 3,
    ) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        if not re.fullmatch(r"[A-Za-z0-9_-]+", prefix):
            raise ValueError("prefix must be alphanumeric/dash/underscore")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.keep = keep

    # -- paths ----------------------------------------------------------
    def payload_path(self, step: int) -> Path:
        return self.directory / f"{self.prefix}-{step:08d}.npz"

    def manifest_path(self, step: int) -> Path:
        return self.directory / f"{self.prefix}-{step:08d}.json"

    # -- write ----------------------------------------------------------
    def save(
        self,
        step: int,
        arrays: Mapping[str, np.ndarray],
        metadata: Optional[Mapping] = None,
    ) -> Path:
        """Persist one snapshot; returns the payload path."""
        if step < 0:
            raise ValueError("step must be >= 0")
        payload = self.payload_path(step)
        checksum = atomic_save_npz(payload, arrays)
        manifest = {
            "step": step,
            "sha256": checksum,
            "arrays": {
                name: {"shape": list(np.shape(a)), "dtype": str(np.asarray(a).dtype)}
                for name, a in arrays.items()
            },
            "metadata": dict(metadata) if metadata is not None else {},
        }
        atomic_write_bytes(
            self.manifest_path(step),
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
        )
        self._prune()
        return payload

    def clear(self) -> None:
        """Delete every checkpoint (payloads, manifests, stray temps)."""
        for path in self.directory.glob(f"{self.prefix}-*"):
            path.unlink()
        for path in self.directory.glob(f".{self.prefix}-*.tmp.*"):
            path.unlink()

    def _prune(self) -> None:
        steps = self.steps()
        for stale in steps[: -self.keep]:
            for path in (self.payload_path(stale), self.manifest_path(stale)):
                if path.exists():
                    path.unlink()

    # -- read -----------------------------------------------------------
    def steps(self) -> List[int]:
        """Steps that have both payload and manifest, ascending."""
        pattern = re.compile(rf"{re.escape(self.prefix)}-(\d{{8}})\.json$")
        found = []
        for manifest in self.directory.glob(f"{self.prefix}-*.json"):
            match = pattern.fullmatch(manifest.name)
            if match is None:
                continue
            step = int(match.group(1))
            if self.payload_path(step).exists():
                found.append(step)
        return sorted(found)

    def latest(self) -> Optional[int]:
        steps = self.steps()
        return steps[-1] if steps else None

    def load(self, step: Optional[int] = None) -> Tuple[Dict[str, np.ndarray], Dict]:
        """Load (arrays, metadata) for ``step`` (default: latest).

        Verifies the payload checksum against the manifest; raises
        :class:`CheckpointError` on any mismatch or absence.
        """
        if step is None:
            step = self.latest()
            if step is None:
                raise CheckpointError(
                    f"no complete checkpoint under {self.directory}"
                )
        manifest_path = self.manifest_path(step)
        payload_path = self.payload_path(step)
        if not manifest_path.exists() or not payload_path.exists():
            raise CheckpointError(f"checkpoint step {step} is incomplete")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        actual = sha256_of_file(payload_path)
        if actual != manifest.get("sha256"):
            raise CheckpointError(
                f"checksum mismatch for {payload_path.name}: "
                f"manifest {manifest.get('sha256')!r} != payload {actual!r}"
            )
        with np.load(payload_path) as data:
            arrays = {name: data[name].copy() for name in data.files}
        return arrays, manifest.get("metadata", {})
