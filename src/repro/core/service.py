"""The PKGM serving layer (paper §II-D and §II-E).

After pre-training, downstream tasks never touch triple data — they
receive *service vectors*:

* ``k`` triple-query vectors ``S_1..S_k = S_T(item, r_j)`` — candidate
  tail embeddings for the item's k key relations (completion included);
* ``k`` relation-query vectors ``S_{k+1}..S_{2k} = S_R(item, r_j)`` —
  near-zero iff the item has / should have relation ``r_j``.

Two integration recipes (§II-E):

* **sequence models** — append all ``2k`` vectors after the token
  embeddings (:meth:`PKGMServer.serve` provides them stacked);
* **single-embedding models** — condense to one vector (Eq. 8–9 /
  Eq. 20): ``S = (1/k) Σ_j [S_j ; S_{j+k}]`` (:meth:`PKGMServer.serve_condensed`).

:class:`PKGMServer` holds copies of the model parameters and the key
relation table only — it cannot answer symbolic queries, demonstrating
the paper's data-independence property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .key_relations import KeyRelationSelector, KeyRelationTable
from .pkgm import PKGM


class SnapshotError(RuntimeError):
    """A server snapshot is missing keys or has inconsistent shapes."""


@dataclass(frozen=True)
class ServiceVectors:
    """Service payload for one item.

    ``triple_vectors`` is (k, d) — ``S_1..S_k``;
    ``relation_vectors`` is (k, d) — ``S_{k+1}..S_{2k}``.

    ``degraded`` marks a fallback payload (unknown item or backend
    failure) synthesized by the reliability layer instead of computed
    from the model — downstream consumers can weigh or skip it.
    """

    entity_id: int
    key_relations: np.ndarray
    triple_vectors: np.ndarray
    relation_vectors: np.ndarray
    degraded: bool = False

    @property
    def k(self) -> int:
        return len(self.key_relations)

    @property
    def dim(self) -> int:
        return self.triple_vectors.shape[-1]

    def sequence(self) -> np.ndarray:
        """All 2k vectors in paper order (triple first), shape (2k, d)."""
        return np.concatenate([self.triple_vectors, self.relation_vectors], axis=0)

    def condensed(self) -> np.ndarray:
        """Eq. 8–9: ``S = (1/k) Σ_j [S_j ; S_{j+k}]``, shape (2d,)."""
        paired = np.concatenate(
            [self.triple_vectors, self.relation_vectors], axis=1
        )  # (k, 2d)
        return paired.mean(axis=0)


def _index_arrays(
    heads: np.ndarray, relations: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``heads`` and ``relations`` as index arrays, negative ids refused.

    The one check the tables cannot make themselves: an array and a
    :class:`repro.store.StoreTable` both read a negative index from the
    end, which would answer for another entity.  Ids past the end they
    refuse on their own, with the same ``IndexError``.
    """
    heads, relations = np.asarray(heads), np.asarray(relations)
    for kind, ids in (("entity", heads), ("relation", relations)):
        if ids.size and ids.min() < 0:
            raise IndexError(f"{kind} id {int(ids.min())} is negative")
    return heads, relations


#: Pairs per relation held from which sorting a call's pairs by relation
#: beats copying a matrix per pair — blocks at k = 10, R = 17, d = 32, ms
#: gathered / grouped: 16 items 0.119 / 0.128, 20 0.155 / 0.148, 24 0.210 / 0.154.
_GROUP_AT_PAIRS_PER_RELATION = 12


class PKGMServer:
    """Serves PKGM vectors without access to the triple store.

    A server is five tables — the ``pkgm-server`` store schema:
    ``entity_table`` (E, d), ``relation_table`` (R, d), ``transfer``
    (R, d, d), and the key relations as ``item_ids`` (N,) ascending
    beside ``key_relations`` (N, k).  Construction copies the first
    three out of the trained model and freezes the selector into the
    last two; the triple store itself is *not* retained (data
    protection / triple independence, §II-D).  :meth:`from_store`
    serves the same five tables from disk, through the same code: the
    entity table paged in on demand, the other four read at open.
    """

    def __init__(self, model: PKGM, selector: KeyRelationSelector) -> None:
        # Snapshot parameters: the server must keep working even if the
        # model is further trained or discarded.
        self._hold(
            model.triple_module.entity_embeddings.weight.data.copy(),
            model.triple_module.relation_embeddings.weight.data.copy(),
            model.relation_module.transfer_matrices.data.copy(),
            selector.freeze(),
        )

    def _hold(
        self,
        entity_table,
        relation_table,
        transfer,
        key_table: KeyRelationTable,
        store=None,
        unreadable_items: int = 0,
    ) -> None:
        """The one way to become a server: hold the tables (arrays, or
        :class:`repro.store.StoreTable` views of an open ``store``)."""
        self._entity_table = entity_table
        self._relation_table = relation_table
        self._transfer = transfer
        self._key_table = key_table
        self.num_entities, self.dim = entity_table.shape
        self.num_relations = relation_table.shape[0]
        self.k = key_table.key_relations.shape[1]
        self._tail_index = None
        #: The backing :class:`repro.store.EmbeddingStore`, when the
        #: server was restored via :meth:`from_store`; ``None`` for
        #: resident servers.
        self.store = store
        #: Items whose selector rows were quarantined at
        #: :meth:`from_store` time (0 for resident servers).
        self.unreadable_items = unreadable_items

    # ------------------------------------------------------------------
    # Snapshot table views (read-only by convention)
    # ------------------------------------------------------------------
    @property
    def entity_table(self) -> np.ndarray:
        """The served entity-embedding table.  Consumers that seed new
        systems from a trained snapshot (e.g. ``repro stream run
        --from-checkpoint``) read through these views instead of the
        private attributes."""
        return self._entity_table

    @property
    def relation_table(self) -> np.ndarray:
        """The served relation-embedding table."""
        return self._relation_table

    @property
    def transfer_tensor(self) -> np.ndarray:
        """The served per-relation transfer matrices ``M_r``."""
        return self._transfer

    # ------------------------------------------------------------------
    # Raw module services for arbitrary (h, r)
    # ------------------------------------------------------------------
    def triple_service(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """``S_T(h, r) = h + r`` on the snapshot."""
        heads, relations = _index_arrays(heads, relations)
        return self._entity_table[heads] + self._relation_table[relations]

    def relation_service(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """``S_R(h, r) = M_r h - r`` on the snapshot, via :meth:`_project`."""
        heads, relations = _index_arrays(heads, relations)
        transformed = self._project(self._entity_table[heads], relations)
        return transformed - self._relation_table[relations]

    def _project(self, h: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """``M_r h`` per pair of ``h`` (..., d) and ``relations`` (...).

        Few pairs per relation: gather one matrix per pair.  Otherwise
        stable-sort the pairs by relation, gather each *distinct* matrix
        once and project a run of pairs at a time (``MarginStep``'s forward
        shape).  An output row is the same ``np.matvec`` of its own matrix
        and head either way, so no row depends on what else the call holds.
        """
        if relations.size < _GROUP_AT_PAIRS_PER_RELATION * self.num_relations:
            return np.matvec(self._transfer[relations], h)
        shape = np.broadcast_shapes(h.shape[:-1], relations.shape)
        rels = np.broadcast_to(relations, shape).reshape(-1)
        # A stable sort has one answer whatever the key's width; a key
        # as narrow as the relation ids sorts by radix.
        key = rels.astype(np.min_scalar_type(self.num_relations))
        order = np.argsort(key, kind="stable")
        rels = rels[order]
        head_rows = np.arange(math.prod(h.shape[:-1])).reshape(h.shape[:-1])
        head_rows = np.broadcast_to(head_rows, shape).reshape(-1)[order]
        heads = np.take(h.reshape(-1, self.dim), head_rows, axis=0)
        bounds = np.r_[0, np.flatnonzero(rels[1:] != rels[:-1]) + 1, len(rels)]
        grouped = np.empty_like(heads)
        runs = zip(self._transfer[rels[bounds[:-1]]], bounds[:-1], bounds[1:])
        for matrix, lo, hi in runs:
            np.matvec(matrix, heads[lo:hi], out=grouped[lo:hi])
        unsort = np.empty_like(order)
        unsort[order] = np.arange(order.size)
        return np.take(grouped, unsort, axis=0).reshape(shape + (self.dim,))

    # ------------------------------------------------------------------
    # Item-level service with key relations
    # ------------------------------------------------------------------
    def _block(
        self, entity_ids
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The block kernel: ``(ids, key relations, S_T, S_R)`` of a
        batch of items — shapes (B,), (B, k), (B, k, d), (B, k, d).

        One key-relation lookup, then one gather per table: B heads,
        B·k relation rows, and a matrix per pair of a small block or per
        *distinct* key relation of a large one (:meth:`_project`).  The
        arithmetic is the per-item formulas' — a broadcast add, a matvec
        per row — so each row is bit-identical to ``S_T``/``S_R``
        of that item alone.  An id is judged once: the lookup raises
        ``KeyError`` for an item the table does not hold, the gathers
        ``IndexError`` for a row a table does not have.
        """
        ids = np.asarray(entity_ids, dtype=np.int64).reshape(-1)
        relations = self._key_table.for_items(ids)
        h = self._entity_table[ids][:, None, :]
        r = self._relation_table[relations]
        return ids, relations, h + r, self._project(h, relations) - r

    def serve(self, entity_id: int) -> ServiceVectors:
        """All 2k service vectors for one item: a block of one."""
        _, relations, triple, relation = self._block(entity_id)
        return ServiceVectors(entity_id, relations[0], triple[0], relation[0])

    def serve_batch(self, entity_ids: Sequence[int]) -> List[ServiceVectors]:
        """Service vectors for a batch of items (views of one block)."""
        ids, relations, triple, relation = self._block(entity_ids)
        return [
            ServiceVectors(*item)
            for item in zip(ids.tolist(), relations, triple, relation)
        ]

    def serve_sequence_batch(self, entity_ids: Sequence[int]) -> np.ndarray:
        """Sequence-model payload: (batch, 2k, d) in paper order."""
        _, _, triple, relation = self._block(entity_ids)
        return np.concatenate([triple, relation], axis=1)

    def serve_condensed_batch(self, entity_ids: Sequence[int]) -> np.ndarray:
        """Single-embedding payload (Eq. 20): (batch, 2d)."""
        _, _, triple, relation = self._block(entity_ids)
        return np.concatenate([triple.mean(axis=1), relation.mean(axis=1)], axis=1)

    def relation_existence_scores(
        self, entity_ids: Sequence[int], relations: Sequence[int]
    ) -> np.ndarray:
        """L1 norms of ``S_R``: one pass per distinct relation, no item loop.

        ``entity_ids`` and ``relations`` pair up elementwise; the result
        is one score per pair.  Small means the relation (should) EXIST
        (§II-D).
        """
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        if entity_ids.shape != relations.shape:
            raise ValueError(
                f"entity_ids {entity_ids.shape} and relations "
                f"{relations.shape} must pair up elementwise"
            )
        return np.abs(self.relation_service(entity_ids, relations)).sum(axis=-1)

    def relation_existence_score(self, entity_id: int, relation: int) -> float:
        """L1 norm of ``S_R`` — small means (should) EXIST (§II-D)."""
        return float(
            self.relation_existence_scores([entity_id], [relation])[0]
        )

    def known_items(self) -> List[int]:
        """All item ids this server can answer for, ascending."""
        return self._key_table.item_ids.tolist()

    # ------------------------------------------------------------------
    # Retrieval: turn inferred tail embeddings back into entities
    # ------------------------------------------------------------------
    def build_tail_index(
        self,
        kind: str = "flat",
        metric: str = "l1",
        entity_ids: Optional[Sequence[int]] = None,
        registry=None,
        **params,
    ):
        """Build (and retain) a vector index over the entity table.

        ``kind`` is one of ``repro.index.INDEX_KINDS``; ``metric``
        defaults to L1, the TransE energy the triple module was trained
        under.  ``entity_ids`` restricts the retrieval corpus (e.g. to
        :meth:`known_items` for item-to-item queries); the default
        indexes every entity.  Extra ``params`` (``nlist``, ``nprobe``,
        ``seed``, ``block_size``) pass through to the index
        constructor.  Returns the index, which :meth:`nearest_tails`
        uses until a new one is built.
        """
        # Imported lazily: repro.index reaches repro.store (its snapshot
        # format), which imports repro.core at init time.
        from ..index import INDEX_KINDS

        if kind not in INDEX_KINDS:
            raise ValueError(
                f"kind must be one of {sorted(INDEX_KINDS)}, got {kind!r}"
            )
        if entity_ids is None:  # the whole table, read in file order
            ids = np.arange(self.num_entities, dtype=np.int64)
            vectors = np.asarray(self._entity_table)
        else:
            ids = np.asarray(entity_ids, dtype=np.int64)
            vectors = self._entity_table[ids]
        index = INDEX_KINDS[kind](
            dim=self.dim, metric=metric, registry=registry, **params
        )
        if hasattr(index, "build"):
            index.build(vectors, ids)
        else:
            index.add(vectors, ids)
        self._tail_index = index
        return index

    @property
    def tail_index(self):
        """The retrieval index, or ``None`` before the first build."""
        return self._tail_index

    def nearest_tails_batch(
        self,
        heads: Sequence[int],
        relations: Sequence[int],
        k: int = 10,
    ):
        """Entities nearest each inferred tail ``S_T(h, r) = h + r``.

        Searches the tail index (building an exact Flat/L1 one on first
        use) and returns ``(distances, entity_ids)``, both (B, k) —
        the candidate-generation primitive behind link prediction and
        "similar items".
        """
        # Queries first: a refused id must not cost an index build.
        queries = self.triple_service(
            np.asarray(heads, dtype=np.int64),
            np.asarray(relations, dtype=np.int64),
        )
        if self._tail_index is None:
            self.build_tail_index()
        return self._tail_index.search(np.atleast_2d(queries), k)

    def nearest_tails(self, head: int, relation: int, k: int = 10):
        """Single-query :meth:`nearest_tails_batch`: two (k,) arrays."""
        distances, ids = self.nearest_tails_batch([head], [relation], k)
        return distances[0], ids[0]

    # ------------------------------------------------------------------
    # Deployment: the snapshot as an embedding store
    # ------------------------------------------------------------------
    def save_store(
        self,
        directory: Union[str, Path],
        *,
        num_shards: int = 1,
        page_bytes: Optional[int] = None,
        registry=None,
    ):
        """Persist the snapshot as a :class:`repro.store.EmbeddingStore`.

        The saved artifact is exactly what a production deployment
        needs: the embedding tables, transfer matrices, and the per-item
        key relation assignments — no triple data, no training code —
        as checksummed binary shard files under a self-verified
        manifest.  A server restored with :meth:`from_store` then pages
        rows in on demand, so the catalog no longer has to fit in RAM.
        Returns the built (open) store.
        """
        return write_server_store(
            directory,
            {
                "entity_table": self._entity_table,
                "relation_table": self._relation_table,
                "transfer": self._transfer,
                "item_ids": self._key_table.item_ids,
                "key_relations": self._key_table.key_relations,
            },
            num_shards=num_shards,
            page_bytes=page_bytes,
            registry=registry,
        )

    @classmethod
    def from_store(
        cls,
        directory: Union[str, Path],
        *,
        cache_pages: int = 64,
        registry=None,
    ) -> "PKGMServer":
        """Cold-start a server over a store written by :meth:`save_store`.

        Only the entity table — the one table that grows with the
        catalog — stays on disk, behind a :class:`repro.store.StoreTable`
        view paged in through an LRU cache of ``cache_pages`` pages.
        The manifest, the key-relation tables and the O(R·d²) relation
        and transfer tables are read eagerly, each in one CRC-checked
        page walk; the last two are held as read-only arrays, or — when
        a page of one is damaged — as a view like the entity table's.
        Service results are bit-identical to the in-RAM server the store
        was built from — unless a page is quarantined, in which case
        lookups raise :class:`repro.store.QuarantinedRowError`, which the
        gateway answers degraded.  Schema damage raises
        :class:`SnapshotError`.
        """
        from ..store import EmbeddingStore, StoreTable

        store = EmbeddingStore.open(
            directory, cache_pages=cache_pages, registry=registry
        )
        *_, num_relations = server_store_geometry(store)

        def resident(name: str):
            """``name`` as a read-only array if every page of it reads."""
            rows, readable = store.salvage_table(name)
            if not readable.all():
                return StoreTable(store, name)
            rows.flags.writeable = False
            return rows

        # Selector tables are tiny relative to the embeddings; read them
        # resident so item enumeration never faults pages.  Each is one
        # quarantine-tolerant page walk: a damaged selector page costs
        # only the items on it (they serve the unknown-item fallback
        # until repair), never the cold start itself.
        item_ids, ids_readable = store.salvage_table("item_ids")
        key_table, keys_readable = store.salvage_table("key_relations")
        readable = ids_readable & keys_readable
        key_table = key_table[readable]
        if key_table.size and not (
            0 <= key_table.min() and key_table.max() < num_relations
        ):
            store.close()
            raise SnapshotError(
                "'key_relations' references relation ids outside "
                f"[0, {num_relations})"
            )
        # A relation or transfer table with a damaged page stays behind
        # its view, so its quarantined rows still raise at serve time.
        return _StoreBackedServer(
            StoreTable(store, "entity_table"),
            resident("relation_table"),
            resident("transfer"),
            KeyRelationTable(item_ids[readable], key_table),
            store=store,
            unreadable_items=int((~readable).sum()),
        )


class _StoreBackedServer(PKGMServer):
    """How :meth:`PKGMServer.from_store` reaches :meth:`PKGMServer._hold`:
    tables that are already tables have no model to be copied out of."""

    def __init__(self, *tables, store, unreadable_items: int) -> None:
        self._hold(*tables, store, unreadable_items)


# ----------------------------------------------------------------------
# The "pkgm-server" store schema: one writer, one reader
# ----------------------------------------------------------------------
_SERVER_KIND = "pkgm-server"
_SERVER_TABLES = (
    "entity_table",
    "relation_table",
    "transfer",
    "item_ids",
    "key_relations",
)


def write_server_store(
    directory: Union[str, Path],
    tables: Mapping[str, np.ndarray],
    *,
    num_shards: int = 1,
    page_bytes: Optional[int] = None,
    metadata: Optional[Mapping] = None,
    registry=None,
):
    """Write the five server tables + schema metadata; returns the open store.

    The one writer of the schema :meth:`PKGMServer.from_store` reads:
    :meth:`PKGMServer.save_store` and the stream layer's snapshot
    publisher both come through here, the latter with its own extra
    ``metadata``; ``k`` and ``dim`` are read off the table shapes, so
    they cannot disagree with them.  :meth:`EmbeddingStore.build`
    writes each shard straight from a byte view of its rows, so a
    C-contiguous table is never copied on its way to disk.
    """
    # Imported lazily: repro.store sits on repro.reliability, which
    # imports repro.core first.
    from ..store import DEFAULT_PAGE_BYTES, EmbeddingStore

    arrays = {name: np.asarray(tables[name]) for name in _SERVER_TABLES}
    return EmbeddingStore.build(
        directory,
        arrays,
        num_shards=num_shards,
        page_bytes=DEFAULT_PAGE_BYTES if page_bytes is None else page_bytes,
        metadata={
            **(metadata if metadata is not None else {}),
            "kind": _SERVER_KIND,
            "k": int(arrays["key_relations"].shape[1]),
            "dim": int(arrays["entity_table"].shape[1]),
        },
        registry=registry,
    )


def server_store_geometry(store) -> Tuple[int, int, int, int]:
    """``(k, dim, num_entities, num_relations)`` of an opened server store.

    The one reader of the schema: every table present, the right
    ``kind``, and mutually consistent geometry — anything else raises
    :class:`SnapshotError` naming the offending table, before a single
    row is read.
    """
    names = set(store.table_names())
    for key in _SERVER_TABLES:
        if key not in names:
            raise SnapshotError(f"store is missing table {key!r}")
    metadata = store.metadata
    if metadata.get("kind") != _SERVER_KIND:
        raise SnapshotError(
            f"store metadata kind {metadata.get('kind')!r} is not "
            f"{_SERVER_KIND!r}"
        )
    entity_spec = store.spec("entity_table")
    relation_spec = store.spec("relation_table")
    transfer_spec = store.spec("transfer")
    if len(entity_spec.row_shape) != 1:
        raise SnapshotError(
            f"'entity_table' rows must be 1-D, got {entity_spec.row_shape}"
        )
    dim = entity_spec.row_shape[0]
    if relation_spec.row_shape != (dim,):
        raise SnapshotError(
            f"'relation_table' row shape {relation_spec.row_shape} does "
            f"not match entity dim {dim}"
        )
    if transfer_spec.row_shape != (dim, dim) or (
        transfer_spec.rows != relation_spec.rows
    ):
        raise SnapshotError(
            f"'transfer' geometry {transfer_spec.shape} != expected "
            f"{(relation_spec.rows, dim, dim)}"
        )
    k = int(metadata.get("k", 0))
    item_spec = store.spec("item_ids")
    key_spec = store.spec("key_relations")
    if key_spec.rows != item_spec.rows or key_spec.row_shape != (k,):
        raise SnapshotError(
            f"'key_relations' geometry {key_spec.shape} != expected "
            f"{(item_spec.rows, k)}"
        )
    return k, dim, entity_spec.rows, relation_spec.rows
