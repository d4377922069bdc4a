"""PKGM ↔ text-model integration variants (paper §III-B2 / §III-C2).

The paper evaluates four model variants on each text task:

* ``base``      — plain BERT, no knowledge;
* ``pkgm-t``    — + k triple-query service vectors per item;
* ``pkgm-r``    — + k relation-query service vectors per item;
* ``pkgm-all``  — + all 2k service vectors per item.

For the alignment task each *pair* contributes service vectors for both
items (4k total under ``pkgm-all``).  These helpers build the payload
arrays the :class:`repro.text.bert.MiniBert` injection path consumes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core import PKGMServer

VARIANTS = ("base", "pkgm-t", "pkgm-r", "pkgm-all")


def validate_variant(variant: str) -> str:
    """Normalize a variant name; raise ValueError if unknown."""
    key = variant.lower()
    if key not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    return key


def vectors_per_item(variant: str, k: int) -> int:
    """How many service vectors one item contributes under ``variant``."""
    variant = validate_variant(variant)
    if variant == "base":
        return 0
    if variant == "pkgm-all":
        return 2 * k
    return k


def service_payload(
    server: PKGMServer,
    entity_ids: Sequence[int],
    variant: str,
) -> Optional[np.ndarray]:
    """Single-item payload: (batch, m, dim) or None for ``base``.

    Ordering follows the paper: triple-query vectors first, then
    relation-query vectors.
    """
    variant = validate_variant(variant)
    if variant == "base":
        return None
    batches = server.serve_batch(entity_ids)
    if variant == "pkgm-t":
        return np.stack([b.triple_vectors for b in batches])
    if variant == "pkgm-r":
        return np.stack([b.relation_vectors for b in batches])
    return np.stack([b.sequence() for b in batches])


def pair_service_payload(
    server: PKGMServer,
    entities_a: Sequence[int],
    entities_b: Sequence[int],
    variant: str,
) -> Optional[np.ndarray]:
    """Pair payload: item A's vectors then item B's (Fig. 5 ordering)."""
    variant = validate_variant(variant)
    if variant == "base":
        return None
    if len(entities_a) != len(entities_b):
        raise ValueError("pair payload requires equal-length entity lists")
    payload_a = service_payload(server, entities_a, variant)
    payload_b = service_payload(server, entities_b, variant)
    return np.concatenate([payload_a, payload_b], axis=1)


def pair_service_segment_ids(
    num_pairs: int, variant: str, k: int
) -> Optional[np.ndarray]:
    """Segment ids for a pair payload: item A's block 0, item B's block 1.

    Matches :func:`pair_service_payload` ordering, letting the encoder
    attribute each service block to its sentence (Fig. 5's per-sentence
    placement, realized through segment embeddings).
    """
    per_item = vectors_per_item(variant, k)
    if per_item == 0:
        return None
    row = np.concatenate(
        [np.zeros(per_item, dtype=np.int64), np.ones(per_item, dtype=np.int64)]
    )
    return np.tile(row, (num_pairs, 1))
