"""The request-kind table: what a kind *is*, declared once.

PKGM's service is uniform — every downstream task asks the same two
query modules for ``S_T = h + r`` and ``S_R = M_r h − r`` — and so is
the stack that serves it: a request *kind* is one :class:`OpSpec` row
of :data:`OPS`, and every layer is a consumer of that row:

* the forked worker (:func:`repro.serving.worker.run_batch`) runs
  ``call`` per item — or ``fused`` for the whole batch — on the server
  (the scenario engines when ``scenario``) and sends ``wire`` of it;
* the socket frame (:mod:`repro.serving.protocol`) carries that wire
  payload as ``crc_bytes`` of it, in the dtypes and shapes its
  ``layout`` declares, and
  :func:`~repro.serving.protocol.payload_checksum` CRCs the same bytes;
* :class:`~repro.reliability.PKGMGateway` runs the same ``call`` in
  its timed envelope over in-process replicas, or over a worker pool
  answers ``unpack`` of the wire payload; it answers ``degraded`` when
  the request is shed / late / failed, hedges only ``hedged`` kinds,
  requires a scenario backend for ``scenario`` kinds, and bumps
  ``gateway.<counter>``.
  ``degraded`` is the stack's one producer of flagged
  ``degraded=True`` answers.

Adding a kind is one entry here plus its handler; no other module
names a kind.  This module is a leaf — it imports none of its
consumers — so payload types that live in packages *above* the
gateway are imported at call time, inside the entry that needs them.
"""

from __future__ import annotations

import functools
import json
import struct
import zlib
from dataclasses import dataclass
from math import prod
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core.service import ServiceVectors


@dataclass(frozen=True)
class RetrievalPayload:
    """Answer body for one ``"retrieve"`` request.

    ``distances``/``neighbor_ids`` are the (k,) nearest-tail search
    results for ``S_T(entity_id, relation)``; a ``degraded`` payload
    (shed, deadline, backend error) carries ``(inf, -1)`` padding
    instead of real neighbors, mirroring ``ServiceVectors.degraded``.
    """

    entity_id: int
    relation: int
    k: int
    distances: np.ndarray
    neighbor_ids: np.ndarray
    degraded: bool = False


#: (k, dim): the sizes an ``ok`` payload binds its declared shapes to.
Geometry = Tuple[int, int]


class ArrayLayout:
    """A payload that is a tuple of arrays, each of a declared dtype and
    of a shape spelled in the symbols ``"k"`` and ``"dim"``.

    Its bytes are the arrays' C-order bytes back to back, so a reader
    rebuilds each array as an ``np.ndarray`` over its slice, uncopied.

    Every layout answers four calls: ``geometry(payload)`` — the
    ``(k, dim)`` a payload binds, ``None`` when it is not of this
    layout; ``parts(payload)`` — the buffers whose concatenation is
    its bytes; ``write(payload, geometry)`` — those buffers and their
    total size, or ``ValueError`` when the payload does not bind
    ``geometry``; ``read(data, geometry)`` — the payload back from its
    bytes, ``ValueError`` (or ``struct.error``) when they do not fit.
    """

    def __init__(self, *fields: Tuple[str, Tuple[str, ...]]) -> None:
        self.fields = tuple((np.dtype(dtype), tuple(shape)) for dtype, shape in fields)
        first = {}
        for index, (_, shape) in enumerate(self.fields):
            for axis, symbol in enumerate(shape):
                first.setdefault(symbol, (index, axis))
        #: The (field, axis) that binds k, then dim; None: the layout has none.
        self._binders = (first.get("k"), first.get("dim"))

    @staticmethod
    def _facts(payload) -> tuple:
        """(shape, dtype, C-contiguous) of each array of a tuple payload."""
        if type(payload) is not tuple:
            raise TypeError(f"a {type(payload).__name__}, not a tuple of arrays")
        return tuple([(a.shape, a.dtype, a.flags.c_contiguous) for a in payload])

    def geometry(self, payload) -> Optional[Geometry]:
        if type(payload) is not tuple or len(payload) != len(self.fields):
            return None
        try:
            facts = self._facts(payload)
            k, dim = [facts[at[0]][0][at[1]] if at else 0 for at in self._binders]
        except (AttributeError, IndexError):
            return None
        geometry = (k, dim)
        expected = self._plan(geometry)[0]
        if tuple([(shape, dtype) for shape, dtype, _ in facts]) != expected:
            return None
        return geometry

    @functools.lru_cache(maxsize=64)
    def _plan(self, geometry: Geometry):
        """At ``geometry``: ``(shape, dtype)`` per array, that with
        C-contiguity, ``(shape, dtype, offset)`` per array, total bytes."""
        if any(at is None and size for at, size in zip(self._binders, geometry)):
            raise ValueError(f"geometry {geometry} binds a size the layout has not")
        sizes = dict(zip(("k", "dim"), geometry))
        expected, placed, offset = [], [], 0
        for dtype, symbols in self.fields:
            shape = tuple(sizes[symbol] for symbol in symbols)
            expected.append((shape, dtype))
            placed.append((shape, dtype, offset))
            offset += prod(shape) * dtype.itemsize
        contiguous = tuple((shape, dtype, True) for shape, dtype in expected)
        return tuple(expected), contiguous, tuple(placed), offset

    def parts(self, payload) -> List[np.ndarray]:
        return [np.ascontiguousarray(array) for array in payload]

    def write(self, payload, geometry: Geometry):
        expected, contiguous, _, nbytes = self._plan(geometry)
        facts = self._facts(payload)
        if facts == contiguous:
            return payload, nbytes
        if tuple([(shape, dtype) for shape, dtype, _ in facts]) != expected:
            raise ValueError(f"payload off its layout at geometry {geometry}")
        return self.parts(payload), nbytes

    def read(self, data: memoryview, geometry: Geometry) -> tuple:
        _, _, placed, nbytes = self._plan(geometry)
        if nbytes != len(data):
            raise ValueError(f"{len(data)} payload bytes, the layout needs {nbytes}")
        return tuple(
            [np.ndarray(shape, dtype, data, offset) for shape, dtype, offset in placed]
        )


class ScalarLayout:
    """A payload that is one number, packed with a ``struct`` format."""

    def __init__(self, fmt: str, kind: type) -> None:
        self.struct = struct.Struct(fmt)
        self.kind = kind

    def geometry(self, payload) -> Optional[Geometry]:
        return (0, 0) if isinstance(payload, self.kind) else None

    def parts(self, payload) -> List[bytes]:
        return [self.struct.pack(self.kind(payload))]

    def write(self, payload, geometry: Geometry) -> Tuple[List[bytes], int]:
        if not isinstance(payload, self.kind) or geometry != (0, 0):
            raise ValueError(f"{payload!r} is not one {self.kind.__name__}")
        return self.parts(payload), self.struct.size

    def read(self, data: memoryview, geometry: Geometry):
        if geometry != (0, 0):
            raise ValueError(f"a scalar payload binds no geometry, not {geometry}")
        (value,) = self.struct.unpack(data)
        return value


class JsonLayout:
    """A payload that is a primitive dict, sent as canonical JSON (sorted
    keys, no spaces), which makes its bytes independent of the order
    the dict was built in."""

    def geometry(self, payload) -> Optional[Geometry]:
        return (0, 0) if isinstance(payload, dict) else None

    def parts(self, payload) -> List[bytes]:
        return [
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ]

    def write(self, payload, geometry: Geometry) -> Tuple[List[bytes], int]:
        if not isinstance(payload, dict) or geometry != (0, 0):
            raise ValueError(f"a {type(payload).__name__} is not a JSON object")
        (data,) = self.parts(payload)
        return [data], len(data)

    def read(self, data: memoryview, geometry: Geometry) -> dict:
        if geometry != (0, 0):
            raise ValueError(f"a JSON payload binds no geometry, not {geometry}")
        value = json.loads(bytes(data))
        if not isinstance(value, dict):
            raise ValueError(f"a JSON {type(value).__name__}, not an object")
        return value


@dataclass(frozen=True)
class OpSpec:
    """Everything the serving stack knows about one request kind.

    ``call(backend, entity_id, relation, k)`` answers one request in
    the backend's own typed form; ``wire`` turns that
    answer into the payload that crosses the worker socket, and
    ``layout`` declares that payload's bytes (:meth:`crc_bytes`, which
    are both what the frame carries and what its checksum covers) and
    how a reader rebuilds the payload from them.
    ``fused(server, entities, relations, k)`` answers a whole batch
    with one kernel call, as wire payloads in item order.
    ``unpack(request, payload)`` is the gateway's typed answer for a
    pool's wire payload (``None``: a gateway over a pool has no endpoint
    for this kind).  ``degraded(request, gateway)`` builds
    the gateway's typed ``degraded=True`` answer (``None``: the gateway
    has no endpoint for this kind).  ``errors`` are exceptions of this
    kind's own that degrade one item to ``STATUS_ERROR`` in the worker.
    """

    call: Callable
    wire: Callable
    layout: object  # an ArrayLayout, ScalarLayout or JsonLayout
    fused: Optional[Callable] = None
    unpack: Optional[Callable] = None
    degraded: Optional[Callable] = None
    errors: Tuple[type, ...] = ()
    hedged: bool = False
    scenario: bool = False  # served by the scenario engines, not the server
    counter: Optional[str] = None  # gateway.<counter>, beyond gateway.arrived

    def crc_bytes(self, payload) -> bytes:
        """The bytes of a wire payload: what the frame carries and the
        checksum covers."""
        return b"".join(self.layout.parts(payload))

    def checksum(self, payload) -> int:
        """CRC32 of :meth:`crc_bytes`, chained over the parts uncopied."""
        crc = 0
        for part in self.layout.parts(payload):
            crc = zlib.crc32(part, crc)
        return crc


def _serve_wire(vectors):
    return (vectors.key_relations, vectors.triple_vectors, vectors.relation_vectors)


def _retrieve(server, entity_id, relation, k):
    return RetrievalPayload(
        entity_id, relation, k, *server.nearest_tails(entity_id, relation, k)
    )


def _neighbors_wire(payload):
    return (payload.distances, payload.neighbor_ids)


#: ``serve``: key relations (k,), then ``S_T`` and ``S_R`` rows (k, dim).
_VECTORS = ArrayLayout(("<i8", ("k",)), ("<f8", ("k", "dim")), ("<f8", ("k", "dim")))
#: ``retrieve`` / ``recommend``: (k,) distances, then (k,) neighbor ids.
_NEIGHBORS = ArrayLayout(("<f8", ("k",)), ("<i8", ("k",)))


def fallback_payload(entity_id: int, k: int, dim: int) -> ServiceVectors:
    """The flagged, all-zeros ``serve`` answer for an unanswerable request.

    ``key_relations`` are ``-1`` padding, the vectors ``(k, dim)``
    zeros, so a degraded answer has the live answer's shape.
    """
    return ServiceVectors(
        entity_id=int(entity_id),
        key_relations=np.full(k, -1, dtype=np.int64),
        triple_vectors=np.zeros((k, dim)),
        relation_vectors=np.zeros((k, dim)),
        degraded=True,
    )


def _serve_degraded(request, gateway):
    return fallback_payload(request.entity_id, gateway.k, gateway.dim)


def _retrieve_degraded(request, gateway):
    return RetrievalPayload(
        request.entity_id,
        request.relation,
        request.k,
        distances=np.full(request.k, np.inf),
        neighbor_ids=np.full(request.k, -1, dtype=np.int64),
        degraded=True,
    )


def _explain_degraded(request, gateway):
    from .scenarios.service import degraded_explanation

    return degraded_explanation(request.entity_id, request.relation)


def _recommend_degraded(request, gateway):
    from .scenarios.service import degraded_recommendation

    return degraded_recommendation(request.entity_id, request.k)


#: kind → spec, in the order ``protocol.KINDS`` has always listed them.
#: ``serve``, ``retrieve`` and ``exist`` coalesce into the batched kernels
#: ``PKGMServer`` already exposes; ``explain`` and ``recommend`` are
#: the scenario kinds served by :mod:`repro.scenarios.service`.  Only
#: ``serve`` is hedged: replicas lazily build their own tail index, so
#: duplicating a cold retrieval would double the most expensive call in
#: the system, and the scenario backend is one logical service.
OPS: Dict[str, OpSpec] = {
    "serve": OpSpec(
        call=lambda server, entity_id, relation, k: server.serve(entity_id),
        fused=lambda server, entities, relations, k: [
            _serve_wire(vectors) for vectors in server.serve_batch(entities)
        ],
        wire=_serve_wire,
        layout=_VECTORS,
        unpack=lambda request, payload: ServiceVectors(request.entity_id, *payload),
        degraded=_serve_degraded,
        hedged=True,
    ),
    "retrieve": OpSpec(
        call=_retrieve,
        fused=lambda server, entities, relations, k: list(
            zip(*server.nearest_tails_batch(entities, relations, k))
        ),
        wire=_neighbors_wire,
        layout=_NEIGHBORS,
        unpack=lambda request, payload: RetrievalPayload(
            request.entity_id, request.relation, request.k, *payload
        ),
        degraded=_retrieve_degraded,
        counter="retrievals",
    ),
    "exist": OpSpec(
        call=lambda server, entity_id, relation, k: server.relation_existence_score(
            entity_id, relation
        ),
        fused=lambda server, entities, relations, k: [
            float(s) for s in server.relation_existence_scores(entities, relations)
        ],
        wire=float,
        layout=ScalarLayout(">d", float),
    ),
    "explain": OpSpec(
        call=lambda engines, entity_id, relation, k: engines.explain(entity_id, relation),
        wire=lambda payload: payload.canonical_dict(),
        layout=JsonLayout(),
        degraded=_explain_degraded,
        # A store without the scenarios sidecar: degrade, don't die.
        errors=(RuntimeError,),
        scenario=True,
        counter="explanations",
    ),
    "recommend": OpSpec(
        call=lambda engines, entity_id, relation, k: engines.recommend(entity_id, k=k),
        wire=_neighbors_wire,
        layout=_NEIGHBORS,
        degraded=_recommend_degraded,
        scenario=True,
        counter="recommendations",
    ),
}
