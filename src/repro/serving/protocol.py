"""Wire protocol for the supervisor ⇄ worker socket link.

Frames are length-prefixed pickles: a 4-byte big-endian payload size
followed by the pickled message.  Messages are plain tuples tagged by
their first element::

    supervisor → worker
        ("batch", kind, k, [(request_id, entity_id, relation, budget), ...])
        ("ping", seq)
        ("shutdown",)
    worker → supervisor
        ("ready", worker_id, num_entities)
        ("results", worker_id, [(request_id, status, payload), ...])
        ("pong", seq, served_total)

The framing is deliberately dumb: no negotiation, no versioning, no
partial writes — a worker is a child of the supervisor created over a
``socketpair``, so both ends always run the same code.  What the
protocol *does* guarantee is that a frame is either read whole or not
at all: :func:`recv_frame` returns ``None`` only on a clean EOF at a
frame boundary and raises :class:`ProtocolError` on a torn frame, and
:func:`drain_frames` recovers every complete frame a dead worker left
behind in the kernel socket buffer — the piece that lets the
supervisor tell "answered before the crash" from "orphaned by it".

Each batch item carries the request's remaining virtual deadline
``budget`` as its fourth field, so the cancellation decision the
gateway makes up front is re-checked *inside* the worker: an item
whose budget is already spent answers ``STATUS_DEADLINE`` without
touching the store.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional

from ..ops import OPS

_HEADER = struct.Struct(">I")

#: Refuse absurd frame sizes (a torn header read as a length would
#: otherwise ask for gigabytes).
MAX_FRAME_BYTES = 256 << 20

#: Per-request result statuses a worker can report.
STATUS_OK = "ok"
STATUS_UNKNOWN = "unknown-id"
STATUS_QUARANTINED = "quarantined"
STATUS_DEADLINE = "deadline"
STATUS_ERROR = "error"

#: Request kinds the pool understands: the rows of :data:`repro.ops.OPS`.
KINDS = tuple(OPS)


class ProtocolError(RuntimeError):
    """A frame was torn, oversized, or otherwise unparseable."""


def shard_of(entity_id: int, num_workers: int) -> int:
    """Worker affinity for an entity — same modulo rule as the
    parameter-server shard map.

    Every worker opens the *full* store read-only, so the shard map is
    an affinity (page-cache locality) choice, not a correctness one —
    which is exactly what makes sibling failover trivially safe.
    """
    return int(entity_id) % int(num_workers)


@dataclass(frozen=True)
class PoolRequest:
    """One admitted request and its routing/deadline envelope."""

    request_id: int
    idempotency_key: str
    kind: str  # one of KINDS
    entity_id: int
    relation: int
    k: int
    deadline_at: float  # virtual StepClock timestamp
    shard: int
    attempts: int = 0  # dispatches so far (replays increment)


@dataclass(frozen=True)
class PoolResponse:
    """Exactly one terminal answer per submitted request."""

    request_id: int
    idempotency_key: str
    kind: str
    entity_id: int
    relation: int
    outcome: str  # "ok" | "unknown-id" | "quarantined" | "deadline" | "failed"
    payload: object
    checksum: int  # CRC32 of the payload bytes (0 for non-ok outcomes)
    worker: int  # index that answered (-1 for supervisor-side outcomes)
    replayed: bool = False

    @property
    def ok(self) -> bool:
        return self.outcome == STATUS_OK


def encode(message: object) -> bytes:
    """One message as frame-body bytes (pickle protocol 4)."""
    return pickle.dumps(message, protocol=4)


def decode(data: bytes) -> object:
    """Frame-body bytes back to a message; damage is a ProtocolError."""
    try:
        return pickle.loads(data)
    except Exception as error:  # unpickling failures are protocol damage
        raise ProtocolError(f"undecodable frame: {error}") from error


def send_frame(sock, message: object) -> None:
    """Write one length-prefixed frame (raises ``OSError`` on a dead peer)."""
    body = encode(message)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the cap")
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock, count: int) -> Optional[bytes]:
    """``count`` bytes, ``None`` on EOF before the first byte."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError(
                    f"EOF mid-frame ({count - remaining}/{count} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> Optional[object]:
    """One decoded frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"declared frame of {length} bytes exceeds the cap")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("EOF between header and body")
    return decode(body)


def drain_frames(sock) -> List[object]:
    """Every complete frame still buffered on a (possibly dead) socket.

    Used by the supervisor's death handler: responses a worker wrote
    before being SIGKILLed survive in the kernel buffer and must be
    credited as completed — otherwise a replay would double-execute
    them.  A trailing partial frame (torn by the crash) is discarded.
    """
    frames: List[object] = []
    try:
        sock.setblocking(False)
    except OSError:
        return frames
    while True:
        try:
            message = recv_frame(sock)
        except (BlockingIOError, ProtocolError, OSError):
            break
        if message is None:
            break
        frames.append(message)
    return frames


def payload_checksum(kind: str, payload: object) -> int:
    """Deterministic CRC32 of an ``ok`` payload's bytes.

    The chaos transcript records this instead of which worker answered:
    primary and failover sibling read the same store, so the checksum
    is invariant under crash/replay timing — the property that makes
    the kill-drill transcript byte-identical across runs.
    """
    spec = OPS.get(kind)
    if spec is None:
        raise ValueError(f"unknown request kind {kind!r}")
    return zlib.crc32(spec.crc_bytes(payload)) & 0xFFFFFFFF
