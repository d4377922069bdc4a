"""Independent output checks; every failure counts against the run.

Nothing here calls the code path it checks.  Service vectors are
recomputed from the raw tables with plain gathers and ``matmul`` (the
program uses ``einsum`` over a fancy-indexed 4-D gather); pool answers
are compared, by payload checksum, with a resident server that never
touches the store, the wire or a worker; retrieval is compared with an
exhaustive L1 scan of the live set.  A failed comparison marks the
operation failed: the run then reports ``correct: false`` and exits
non-zero.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import List, Sequence, Set, Tuple

import numpy as np

from .calib import REFERENCE_PATH

TOLERANCE = 1e-12


def close(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Shape-strict ``allclose`` at the oracle tolerance."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=0.0, atol=TOLERANCE)
    )


def array_digest(array: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and bytes: equal digests mean
    bit-for-bit equal arrays.  Lets an output be compared with a
    reference that is not in memory when the output is produced."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


# -- service vectors ---------------------------------------------------
def triple_reference(entity, relation, heads, relations) -> np.ndarray:
    """``S_T(h, r) = h + r`` from the raw tables."""
    return entity[heads] + relation[relations]


def relation_reference(entity, relation, transfer, heads, relations) -> np.ndarray:
    """``S_R(h, r) = M_r h - r`` from the raw tables, via ``matmul``."""
    projected = np.matmul(transfer[relations], entity[heads][..., None])[..., 0]
    return projected - relation[relations]


def _service_pair(tables, ids, key_relations):
    entity, relation, transfer = tables
    heads = np.repeat(ids[:, None], key_relations.shape[1], axis=1)
    return (
        triple_reference(entity, relation, heads, key_relations),
        relation_reference(entity, relation, transfer, heads, key_relations),
    )


def check_sequence(tables, ids, key_relations, rows) -> bool:
    """``serve_sequence_batch`` rows for ``ids``: (n, 2k, d)."""
    triple, relation = _service_pair(tables, ids, key_relations)
    return close(rows, np.concatenate([triple, relation], axis=1))


def check_condensed(tables, ids, key_relations, rows) -> bool:
    """``serve_condensed_batch`` rows for ``ids`` (Eq. 20): (n, 2d)."""
    triple, relation = _service_pair(tables, ids, key_relations)
    return close(rows, np.concatenate([triple, relation], axis=2).mean(axis=1))


def check_existence(tables, ids, relations, scores) -> bool:
    """``relation_existence_scores`` entries for the (id, relation) pairs."""
    entity, relation, transfer = tables
    vectors = relation_reference(entity, relation, transfer, ids, relations)
    return close(scores, np.abs(vectors).sum(axis=-1))


# -- pool answers ------------------------------------------------------
def reference_payload(server, kind: str, entity: int, relation: int, k: int):
    """The resident server's answer in the pool's wire payload shape."""
    if kind == "serve":
        vectors = server.serve(entity)
        return (
            vectors.key_relations,
            vectors.triple_vectors,
            vectors.relation_vectors,
        )
    if kind == "exist":
        return server.relation_existence_score(entity, relation)
    if kind == "retrieve":
        return server.nearest_tails(entity, relation, k)
    raise ValueError(f"no reference for request kind {kind!r}")


# -- retrieval ---------------------------------------------------------
def load_recall_floor() -> float:
    """The frozen recall@10 floor of ``index_churn``: 0.05 below the
    mean the first baseline measured."""
    document = json.loads(REFERENCE_PATH.read_text("utf-8"))
    return float(document["index_churn_recall_floor"])


def exact_l1_top_k(
    vectors: np.ndarray, ids: np.ndarray, queries: np.ndarray, k: int
) -> List[Set[int]]:
    """Exhaustive L1 top-``k`` id sets, one per query."""
    found: List[Set[int]] = []
    for query in queries:
        distances = np.abs(vectors - query).sum(axis=1)
        nearest = np.argsort(distances, kind="stable")[:k]
        found.append({int(ids[position]) for position in nearest})
    return found


def recall_at_k(returned: np.ndarray, exact: Sequence[Set[int]]) -> float:
    """Mean share of each exact top-k set present in the returned row."""
    hits = sum(
        len(expected.intersection(int(i) for i in row if i >= 0))
        for row, expected in zip(returned, exact)
    )
    wanted = sum(len(expected) for expected in exact)
    return hits / wanted if wanted else 1.0


def only_live(returned: np.ndarray, live_ids: np.ndarray) -> bool:
    """Whether every id a search returned (padding is -1) is live now.

    Checked against the whole live set, so an id tombstoned in any
    earlier operation that a compaction or re-cluster brought back is
    caught, not only the ids the current operation deleted.
    """
    returned = np.asarray(returned).ravel()
    return bool(np.isin(returned[returned >= 0], live_ids).all())


# -- training ----------------------------------------------------------
def losses_improved(losses: Sequence[float], window: int = 10) -> Tuple[bool, str]:
    """Every loss finite, and the last ``window`` below the first."""
    if not all(math.isfinite(loss) for loss in losses):
        return False, "non-finite training loss"
    if len(losses) < 2 * window:
        window = max(1, len(losses) // 2)
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    if not last < first:
        return False, f"loss did not improve ({first:.4f} -> {last:.4f})"
    return True, ""
