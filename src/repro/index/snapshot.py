"""Index snapshots are embedding-store directories.

:func:`save_index` writes ``index.state()`` as a :mod:`repro.store`
directory — each (rectangular) state array one table, the ``meta``
dict the manifest metadata — so an index snapshot gets the store's
whole discipline for free: atomic shard writes, the sealed manifest
strictly last, a CRC per page.  :func:`load_index` opens the
directory, reads every table back through those CRCs, and raises
:class:`IndexSnapshotError` on a missing or damaged manifest, a torn
or bit-flipped shard, or an unknown index kind — a corrupt snapshot is
refused before any index object exists, never half-loaded.

Because every index builds deterministically from ``(vectors, seed)``
and the store writes byte-stable files, two same-seed builds produce
*byte-identical* snapshot directories; ``tools/check.sh`` gates on
exactly that.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..store import (
    EmbeddingStore,
    QuarantinedRowError,
    StoreManifestError,
    StoreSchemaError,
)
from .flat import FlatIndex
from .ivf import IVFFlatIndex

#: Index classes by their ``kind`` tag, for load-time dispatch.
INDEX_KINDS = {
    FlatIndex.kind: FlatIndex,
    IVFFlatIndex.kind: IVFFlatIndex,
}


class IndexSnapshotError(RuntimeError):
    """An index snapshot is missing, torn, corrupt, or unrecognized."""


def save_index(index, path: Union[str, Path]) -> Path:
    """Snapshot ``index`` as the store directory ``path``; returns it.

    Shards land before the manifest, so a crash mid-save leaves no
    manifest and the snapshot is simply invisible to :func:`load_index`.
    """
    arrays, meta = index.state()
    EmbeddingStore.build(path, arrays, metadata=meta).close()
    return Path(path)


def load_index(path: Union[str, Path], registry=None):
    """Load a snapshot written by :func:`save_index`, verifying it.

    Raises :class:`IndexSnapshotError` if ``path`` holds no store
    manifest (an ``.npz``/``.json`` pair from before snapshots were
    stores is refused here, not read), the manifest fails its
    self-checksum, any page fails its CRC, or the manifest names an
    unknown index kind.
    """
    try:
        store = EmbeddingStore.open(path)
        kind = store.metadata.get("kind")
        if kind not in INDEX_KINDS:
            raise IndexSnapshotError(f"unknown index kind: {kind!r}")
        try:
            arrays = {
                name: store.read_table(name) for name in store.table_names()
            }
        finally:
            store.close()
    except (StoreManifestError, StoreSchemaError, QuarantinedRowError) as error:
        raise IndexSnapshotError(
            f"{path} is not a loadable index snapshot: {error}"
        ) from error
    return INDEX_KINDS[kind].from_state(arrays, store.metadata, registry=registry)
