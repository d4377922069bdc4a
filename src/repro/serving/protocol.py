"""Wire protocol for the supervisor ⇄ worker socket link.

A frame is a 4-byte big-endian body length followed by the body, a
closed, versioned binary message.  In memory a message is a plain
tuple tagged by its first element::

    supervisor → worker
        ("batch", kind, k, [(request_id, entity_id, relation, budget), ...])
        ("ping", seq)
        ("shutdown",)
    worker → supervisor
        ("ready", worker_id, num_entities)
        ("results", worker_id, [(request_id, status, payload), ...])
        ("pong", seq, served_total)
        ("fail", worker_id, message)

Every body opens with one little-endian header, ``<BBBxqqI``::

    version  u8   VERSION; any other value is refused
    tag      u8   index into TAGS
    kind     u8   index into OPS (batch, results; else 0)
    k        i64  batch: the requests' k; results: the k the ok
                  payloads' shapes bind (else 0)
    dim      i64  results: the dim the ok payloads' shapes bind (else 0)
    count    u32  batch items or result records (else 0)

and goes on by tag:

* ``batch``: ``count`` items of ``<qqqBd`` — request id, entity,
  relation, a has-budget flag (0 or 1) and the budget, so a ``None``
  budget (flag 0) round-trips;
* ``results``: the worker id (``<q``), then ``count`` records, each a
  ``<qBII`` head — request id, index into STATUSES, CRC32 and length
  of its bytes — followed by those bytes.  An ``ok`` record's bytes
  are exactly ``OPS[kind].crc_bytes(payload)``, in the dtypes and
  shapes the kind's layout declares; ``quarantined`` carries row,
  shard and page (``<qqq``) then the UTF-8 table name, ``error`` a
  UTF-8 message, ``unknown-id`` and ``deadline`` nothing.  The header
  names the first kind whose layout fits the ok payloads (``retrieve``
  and ``recommend`` share one) and their geometry, all 0 when there
  is no ok record;
* ``ping`` a ``<q`` sequence number; ``pong`` and ``ready`` two
  ``<q``; ``fail`` a ``<q`` worker id then a UTF-8 message;
  ``shutdown`` nothing.

:func:`decode` refuses — with :class:`ProtocolError` — a wrong version,
tag, kind or status, a length or count that does not match, a CRC that
does not, a payload off its layout, and a trailing byte.  It rebuilds
arrays as ``np.ndarray`` views of the body, and each decoded result
record carries a fourth field, the CRC its bytes were checked against,
which the supervisor takes as the response's checksum.  :func:`encode`
accepts records with or without that field and always writes the CRC
of the bytes it writes.  Arrays travel in host byte order (both ends
are processes of one machine) and the declared dtypes are
little-endian, so a big-endian host refuses every array payload.

No negotiation, no partial writes — a worker is a child of the
supervisor created over a ``socketpair``, so both ends always run the
same code; the version byte is there so a later header can say so.
What the protocol *does* guarantee is that a frame is either read whole
or not at all: :func:`recv_frame` returns ``None`` only on a clean EOF
at a frame boundary and raises :class:`ProtocolError` on a torn or
off-schema frame, and :func:`drain_frames` recovers every complete
frame a dead worker left behind in the kernel socket buffer — the piece
that lets the supervisor tell "answered before the crash" from
"orphaned by it".  A frame is read with ``recv_into`` into one
``bytearray``, so the arrays a results frame decodes to are writable
views of the only copy made off the socket.

Each batch item carries the request's remaining virtual deadline
``budget`` as its fourth field, so the cancellation decision the
gateway makes up front is re-checked *inside* the worker: an item
whose budget is already spent answers ``STATUS_DEADLINE`` without
touching the store.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ops import OPS

_LENGTH = struct.Struct(">I")
_HEADER = struct.Struct("<BBBxqqI")
_ITEM = struct.Struct("<qqqBd")
_RECORD = struct.Struct("<qBII")
_INT = struct.Struct("<q")
_PAIR = struct.Struct("<qq")
_QUARANTINE = struct.Struct("<qqq")

#: The header's version byte.
VERSION = 1

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
#: Message tags and result statuses, in their wire order.
TAGS = ("batch", "results", "ping", "pong", "ready", "fail", "shutdown")
STATUSES = (STATUS_OK, STATUS_UNKNOWN, STATUS_QUARANTINED, STATUS_DEADLINE, STATUS_ERROR)
_TAG_INDEX = {tag: index for index, tag in enumerate(TAGS)}
_STATUS_INDEX = {status: index for index, status in enumerate(STATUSES)}
#: The fixed fields after the header of each control tag.
_CONTROL = {"ping": _INT, "pong": _PAIR, "ready": _PAIR, "fail": _INT, "shutdown": None}


class ProtocolError(RuntimeError):
    """A frame was torn, oversized, off its schema, or otherwise unparseable."""


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
    kind: str  # one of KINDS
    entity_id: int
    relation: int
    k: int
    deadline_at: float  # virtual StepClock timestamp
    shard: int
    attempts: int = 0  # dispatches so far (replays increment)


@dataclass(frozen=True, slots=True)
class PoolResponse:
    """Exactly one terminal answer per submitted request."""

    request_id: int
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


def _kind_index(kind: str) -> int:
    kinds = tuple(OPS)
    if kind not in kinds:
        raise ProtocolError(f"unknown request kind {kind!r}")
    return kinds.index(kind)


def _layout_of(payload):
    """(OPS index, layout, geometry) of the first kind whose layout fits."""
    for index, spec in enumerate(OPS.values()):
        geometry = spec.layout.geometry(payload)
        if geometry is not None:
            return index, spec.layout, geometry
    raise ProtocolError("an ok payload no kind's layout fits")


def _other_parts(status: str, payload) -> list:
    """The bytes of a non-ok record's payload."""
    if status == STATUS_QUARANTINED:
        table, row, shard, page = payload
        return [_QUARANTINE.pack(row, shard, page) + table.encode("utf-8")]
    if status == STATUS_ERROR:
        return [payload.encode("utf-8")]
    if status in (STATUS_UNKNOWN, STATUS_DEADLINE) and payload is None:
        return []
    raise ProtocolError(f"no wire form for a {status!r} record of {payload!r}")


def _results_parts(worker_id: int, records) -> Tuple[list, int]:
    parts = [b"", _INT.pack(worker_id)]
    size = _HEADER.size + _INT.size
    kind, layout, geometry = 0, None, (0, 0)
    for record in records:
        status, payload = record[1], record[2]
        if status == STATUS_OK:
            if layout is None:
                kind, layout, geometry = _layout_of(payload)
            body, length = layout.write(payload, geometry)
        else:
            body = _other_parts(status, payload)
            length = len(body[0]) if body else 0
        crc = 0
        for part in body:
            crc = zlib.crc32(part, crc)
        parts.append(_RECORD.pack(record[0], _STATUS_INDEX[status], crc, length))
        parts.extend(body)
        size += _RECORD.size + length
    parts[0] = _HEADER.pack(
        VERSION, _TAG_INDEX["results"], kind, *geometry, len(records)
    )
    return parts, size


def _message_parts(message) -> Tuple[list, int]:
    tag = message[0]
    if tag == "results":
        _, worker_id, records = message
        return _results_parts(worker_id, records)
    if tag == "batch":
        _, kind, k, items = message
        parts = [
            _HEADER.pack(VERSION, _TAG_INDEX[tag], _kind_index(kind), k, 0, len(items))
        ]
        for request_id, entity, relation, budget in items:
            parts.append(
                _ITEM.pack(
                    request_id,
                    entity,
                    relation,
                    budget is not None,
                    0.0 if budget is None else budget,
                )
            )
    elif tag not in _CONTROL:
        raise ProtocolError(f"unknown message tag {tag!r}")
    else:
        parts = [_HEADER.pack(VERSION, _TAG_INDEX[tag], 0, 0, 0, 0)]
        fields = _CONTROL[tag]
        if fields is None:
            if len(message) != 1:
                raise ProtocolError(f"a {tag!r} message has no fields")
        elif tag == "fail":
            _, worker_id, text = message
            parts += [_INT.pack(worker_id), text.encode("utf-8")]
        else:
            parts.append(fields.pack(*message[1:]))
    return parts, sum(map(len, parts))


def _parts(message) -> Tuple[list, int]:
    """A message as the buffers its body is made of, in order, and
    their total size; an off-schema message is a :class:`ProtocolError`."""
    try:
        return _message_parts(message)
    except (struct.error, TypeError, ValueError, KeyError, AttributeError) as error:
        raise ProtocolError(f"unencodable message: {error}") from error


def encode(message: object) -> bytes:
    """One message as frame-body bytes."""
    return b"".join(_parts(message)[0])


def _other_payload(status: str, data: memoryview):
    if status == STATUS_QUARANTINED:
        row, shard, page = _QUARANTINE.unpack_from(data)
        return (str(data[_QUARANTINE.size :], "utf-8"), row, shard, page)
    if status == STATUS_ERROR:
        return str(data, "utf-8")
    if len(data):
        raise ProtocolError(f"a {status!r} record carries {len(data)} bytes")
    return None


def _decode_results(view: memoryview, kind: int, k: int, dim: int, count: int):
    if k < 0 or dim < 0:
        raise ProtocolError(f"negative payload geometry ({k}, {dim})")
    read = OPS[tuple(OPS)[kind]].layout.read
    geometry = (k, dim)
    (worker_id,) = _INT.unpack_from(view, _HEADER.size)
    end = _HEADER.size + _INT.size
    records, any_ok = [], False
    for _ in range(count):
        request_id, status, crc, length = _RECORD.unpack_from(view, end)
        start = end + _RECORD.size
        end = start + length
        data = view[start:end]
        if len(data) != length:
            raise ProtocolError(f"record of {length} bytes runs past the frame")
        if zlib.crc32(data) != crc:
            raise ProtocolError(f"CRC mismatch on request {request_id}")
        if status == 0:  # STATUSES[0] is STATUS_OK
            payload, any_ok = read(data, geometry), True
        elif status < len(STATUSES):
            payload = _other_payload(STATUSES[status], data)
        else:
            raise ProtocolError(f"unknown result status {status}")
        records.append((request_id, STATUSES[status], payload, crc))
    if end != len(view):
        raise ProtocolError(f"{len(view) - end} bytes after the last record")
    if not any_ok and (kind, k, dim) != (0, 0, 0):
        raise ProtocolError("a results header with no ok record names a kind")
    return ("results", worker_id, records)


def _decode(view: memoryview) -> tuple:
    version, tag, kind, k, dim, count = _HEADER.unpack_from(view)
    if version != VERSION:
        raise ProtocolError(f"frame version {version}, expected {VERSION}")
    if tag >= len(TAGS):
        raise ProtocolError(f"unknown message tag {tag}")
    name = TAGS[tag]
    if name in ("batch", "results"):
        if kind >= len(OPS):
            raise ProtocolError(f"unknown request kind {kind}")
        if name == "results":
            return _decode_results(view, kind, k, dim, count)
        if dim:
            raise ProtocolError("a batch header carries a dim")
        body = view[_HEADER.size :]
        if len(body) != count * _ITEM.size:
            raise ProtocolError(f"{len(body)} bytes for {count} batch items")
        items = []
        for request_id, entity, relation, flag, budget in _ITEM.iter_unpack(body):
            if flag > 1:
                raise ProtocolError(f"budget flag {flag}")
            items.append((request_id, entity, relation, budget if flag else None))
        return ("batch", tuple(OPS)[kind], k, items)
    if kind or k or dim or count:
        raise ProtocolError(f"a {name!r} header carries batch fields")
    body = view[_HEADER.size :]
    fields = _CONTROL[name]
    if fields is None:
        if len(body):
            raise ProtocolError(f"a {name!r} frame carries {len(body)} bytes")
        return (name,)
    if name == "fail":
        (worker_id,) = _INT.unpack_from(body)
        return (name, worker_id, str(body[_INT.size :], "utf-8"))
    return (name, *fields.unpack(body))


def decode(data) -> tuple:
    """Frame-body bytes back to a message; damage is a ProtocolError.

    Arrays are views of ``data``, writable when ``data`` is a
    ``bytearray``.
    """
    try:
        return _decode(memoryview(data))
    except (struct.error, ValueError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error


def send_frame(sock, message: object) -> None:
    """Write one length-prefixed frame (raises ``OSError`` on a dead peer)."""
    parts, size = _parts(message)
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {size} bytes exceeds the cap")
    parts[0] = _LENGTH.pack(size) + parts[0]
    sock.sendall(b"".join(parts))


def _recv_exact(sock, count: int) -> Optional[bytearray]:
    """``count`` bytes read in place, ``None`` on EOF before the first byte."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        got = sock.recv_into(view[received:])
        if not got:
            if received:
                raise ProtocolError(f"EOF mid-frame ({received}/{count} bytes)")
            return None
        received += got
    return buffer


def recv_frame(sock) -> Optional[object]:
    """One decoded frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
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
    """Deterministic CRC32 of an ``ok`` payload's bytes, chained over
    its parts without joining them.

    The chaos transcript records this instead of which worker answered:
    primary and failover sibling read the same store, so the checksum
    is invariant under crash/replay timing — the property that makes
    the kill-drill transcript byte-identical across runs.
    """
    spec = OPS.get(kind)
    if spec is None:
        raise ValueError(f"unknown request kind {kind!r}")
    return spec.checksum(payload)
