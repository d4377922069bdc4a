"""The request-kind table: what a kind *is*, declared once.

PKGM's service is uniform — every downstream task asks the same two
query modules for ``S_T = h + r`` and ``S_R = M_r h − r`` — and so is
the stack that serves it: a request *kind* is one :class:`OpSpec` row
of :data:`OPS`, and every layer is a consumer of that row:

* the forked worker (:func:`repro.serving.worker.run_batch`) runs
  ``call`` per item — or ``fused`` for the whole batch — on the server
  (the scenario engines when ``scenario``) and sends ``wire`` of it;
* :func:`repro.serving.protocol.payload_checksum` CRCs ``crc_bytes``
  of that wire payload;
* the synchronous :class:`~repro.serving.Supervisor` surface returns
  ``unpack`` of it;
* :class:`~repro.reliability.PKGMGateway` runs the same ``call`` in
  its timed envelope, answers ``degraded`` when the request is shed /
  late / failed, hedges only ``hedged`` kinds, requires a scenario
  backend for ``scenario`` kinds, and bumps ``gateway.<counter>``.
  ``degraded`` is the stack's one producer of flagged
  ``degraded=True`` answers.

Adding a kind is one entry here plus its handler; no other module
names a kind.  This module is a leaf — it imports none of its
consumers — so payload types that live in packages *above* the
gateway are imported at call time, inside the entry that needs them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

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


@dataclass(frozen=True)
class OpSpec:
    """Everything the serving stack knows about one request kind.

    ``call(backend, entity_id, relation, k, deadline=None)`` answers
    one request in the backend's own typed form; ``wire`` turns that
    answer into the payload that crosses the worker socket and
    ``crc_bytes`` that payload into the bytes its checksum covers.
    ``fused(server, entities, relations, k)`` answers a whole batch
    with one kernel call, as wire payloads in item order.
    ``unpack(entity_id, payload)`` is what the synchronous pool surface
    returns for a wire payload.  ``degraded(request, gateway)`` builds
    the gateway's typed ``degraded=True`` answer (``None``: the gateway
    has no endpoint for this kind).  ``errors`` are exceptions of this
    kind's own that degrade one item to ``STATUS_ERROR`` in the worker.
    """

    call: Callable
    wire: Callable
    crc_bytes: Callable
    fused: Optional[Callable] = None
    unpack: Callable = lambda entity_id, payload: payload
    degraded: Optional[Callable] = None
    errors: Tuple[type, ...] = ()
    hedged: bool = False
    scenario: bool = False  # served by the scenario engines, not the server
    counter: Optional[str] = None  # gateway.<counter>, beyond gateway.arrived


def _serve(server, entity_id, relation, k, deadline=None):
    # A deadline is only ever handed to a backend whose ``serve`` takes
    # one (TimedBackend checks the signature); plain servers get none.
    if deadline is None:
        return server.serve(entity_id)
    return server.serve(entity_id, deadline=deadline)


def _serve_wire(vectors):
    return (vectors.key_relations, vectors.triple_vectors, vectors.relation_vectors)


def _retrieve(server, entity_id, relation, k, deadline=None):
    return RetrievalPayload(
        entity_id, relation, k, *server.nearest_tails(entity_id, relation, k)
    )


def _neighbors_wire(payload):
    return (payload.distances, payload.neighbor_ids)


def _array_bytes(payload) -> bytes:
    return b"".join(array.tobytes() for array in payload)


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
        call=_serve,
        fused=lambda server, entities, relations, k: [
            _serve_wire(vectors) for vectors in server.serve_batch(entities)
        ],
        wire=_serve_wire,
        crc_bytes=_array_bytes,
        unpack=lambda entity_id, payload: ServiceVectors(int(entity_id), *payload),
        degraded=_serve_degraded,
        hedged=True,
    ),
    "retrieve": OpSpec(
        call=_retrieve,
        fused=lambda server, entities, relations, k: list(
            zip(*server.nearest_tails_batch(entities, relations, k))
        ),
        wire=_neighbors_wire,
        crc_bytes=_array_bytes,
        degraded=_retrieve_degraded,
        counter="retrievals",
    ),
    "exist": OpSpec(
        call=lambda server, entity_id, relation, k, deadline=None: (
            server.relation_existence_score(entity_id, relation)
        ),
        fused=lambda server, entities, relations, k: [
            float(s) for s in server.relation_existence_scores(entities, relations)
        ],
        wire=float,
        crc_bytes=lambda score: struct.pack(">d", float(score)),
    ),
    "explain": OpSpec(
        call=lambda engines, entity_id, relation, k, deadline=None: (
            engines.explain(entity_id, relation)
        ),
        wire=lambda payload: payload.canonical_dict(),
        # Canonical JSON makes the CRC independent of dict construction order.
        crc_bytes=lambda payload: json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8"),
        degraded=_explain_degraded,
        # A store without the scenarios sidecar: degrade, don't die.
        errors=(RuntimeError,),
        scenario=True,
        counter="explanations",
    ),
    "recommend": OpSpec(
        call=lambda engines, entity_id, relation, k, deadline=None: (
            engines.recommend(entity_id, k=k)
        ),
        wire=_neighbors_wire,
        crc_bytes=_array_bytes,
        degraded=_recommend_degraded,
        scenario=True,
        counter="recommendations",
    ),
}
