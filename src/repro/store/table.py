"""Array-like facade over one store table.

:class:`StoreTable` gives an :class:`EmbeddingStore` table the small
slice of the ndarray surface the servers actually use — ``shape`` /
``dtype`` / ``len`` / integer, slice, and fancy indexing — so
``PKGMServer`` code written against ``self._entity_table[heads]``
runs unchanged whether the table is a resident array or a paged,
checksummed store.  Reads stream through the store's page cache, so
memory stays bounded by the cache budget while damage still surfaces
as :class:`repro.store.errors.QuarantinedRowError`.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .store import EmbeddingStore


class StoreTable:
    """Read-only, out-of-core view of one table in a store."""

    def __init__(self, store: EmbeddingStore, name: str) -> None:
        self._store = store
        self.name = name
        self._spec = store.spec(name)

    # -- ndarray-ish surface -------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._spec.shape

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self._spec.dtype)

    @property
    def ndim(self) -> int:
        return len(self._spec.shape)

    @property
    def nbytes(self) -> int:
        return self._spec.nbytes

    def __len__(self) -> int:
        return self._spec.rows

    def __getitem__(
        self, key: Union[int, slice, np.ndarray, list, tuple]
    ) -> np.ndarray:
        if isinstance(key, tuple):
            # Row gather first, then the in-row component lookup — the
            # ``table[ids, j]`` idiom used by scoring paths.
            rows = self[key[0]]
            if len(key) == 1:
                return rows
            if isinstance(key[0], slice):
                return rows[(slice(None),) + key[1:]]
            # A scalar or array row key is an advanced index: its
            # stand-in over the gathered rows must have its shape (none,
            # for a scalar), so the row axis collapses and in-row arrays
            # broadcast against it the way numpy would have them.
            gathered = np.arange(np.size(key[0])).reshape(np.shape(key[0]))
            flat = rows.reshape((-1,) + self._spec.row_shape)
            return flat[(gathered,) + key[1:]]
        if isinstance(key, slice):
            start, stop, step = key.indices(self._spec.rows)
            return self._store.read_rows(
                self.name, np.arange(start, stop, step, dtype=np.int64)
            )
        if isinstance(key, (int, np.integer)):
            return self._store.read_row(self.name, key)
        return self._store.read_rows(self.name, np.asarray(key))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # numpy 2's ``copy`` is moot: gathering rows out of pages always copies.
        full = self._store.read_table(self.name)
        return full.astype(dtype) if dtype is not None else full

    def __repr__(self) -> str:
        return (
            f"StoreTable({self.name!r}, shape={self.shape}, "
            f"dtype={self.dtype})"
        )
