"""Key-relation selection (paper §III-A1).

"For each item in the dataset, we select 10 key relations for it
according to its category ... we gather all items belonging to C and
account for the frequency of properties in those items, then select
top 10 most frequent properties as key relations."

:class:`KeyRelationSelector` computes exactly that table from the KG and
an item→category map; :meth:`KeyRelationSelector.freeze` hands it to
a server as a :class:`KeyRelationTable`, the array form that answers
lookups during servicing and is what a snapshot persists.
Categories with fewer than ``k`` observed relations are padded by
cycling their own list (so service batches stay rectangular) — the
padding choice is covered by tests and called out in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

import numpy as np

from ..kg import TripleStore


class KeyRelationSelector:
    """Per-category top-k relation table with per-item lookup."""

    def __init__(
        self,
        store: TripleStore,
        item_to_category: Mapping[int, int],
        k: int = 10,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        count = len(item_to_category)
        items = np.fromiter(item_to_category, np.int64, count)
        of_item = np.fromiter(item_to_category.values(), np.int64, count)
        order = np.argsort(items)
        # Items ascending beside their category ids.
        self._items, self._item_category = items[order], of_item[order]
        category_ids, category_of_item = np.unique(
            self._item_category, return_inverse=True
        )
        observed, self._rows = self._rank(store, category_of_item, len(category_ids))
        self._categories = category_ids[observed]
        # Each item's row of ``_rows``; -1 when its category has none.
        row_of_category = np.full(len(category_ids), -1)
        row_of_category[observed] = np.arange(len(observed))
        self._row_of_item = row_of_category[category_of_item]

    def _rank(
        self, store: TripleStore, category_of_item: np.ndarray, num_categories: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The categories with observed relations, as ascending indexes
        into the items' sorted category ids, beside their (C, k) key
        relations.

        Each triple whose head is an item counts once for (the item's
        category, its relation).  A category ranks its relations by count
        descending, then relation id ascending, and one with L < k
        relations repeats its ranking cyclically: row position j holds
        rank j % L.  Categories are counted by their index and relations
        by their offset from the smallest, so nothing is sized by an id.
        """
        triples = store.to_array()
        heads, relations = triples[:, 0], triples[:, 1]
        # An item's triples mostly arrive together: look each run of one
        # head up once, then spread its category over the run.  A head
        # that is not an item gets category index ``num_categories``.
        first = np.flatnonzero(np.diff(heads, prepend=heads[:1] - 1))
        run_heads = heads[first]
        rows = self._items.searchsorted(run_heads)
        # Row N (past the last item) is "not an item" whatever the padding
        # it is compared with.
        hit = np.append(self._items, 0)[rows] == run_heads
        rows[~hit] = len(self._items)
        category = np.repeat(
            np.append(category_of_item, num_categories)[rows],
            np.diff(first, append=len(heads)),
        )
        low, high = (int(relations.min()), int(relations.max())) if len(relations) else (0, 0)
        span = high - low + 1
        if (num_categories + 1) * span > np.iinfo(np.int64).max:
            raise OverflowError("(category, relation) keys do not fit in int64")
        # One count over (category, relation) pairs, then each category's
        # pairs ranked by (-count, relation id) into one contiguous run.
        pairs, counts = np.unique(category * span + (relations - low), return_counts=True)
        category, relation = np.divmod(pairs, span)
        ranked = np.lexsort((relation, -counts, category))
        ranked = ranked[category[ranked] < num_categories]
        category, relation = category[ranked], relation[ranked]
        starts = np.flatnonzero(np.diff(category, prepend=-1))
        lengths = np.diff(starts, append=len(category))
        cycle = np.arange(self.k) % lengths[:, None]
        return category[starts], low + relation[starts[:, None] + cycle]

    def categories(self) -> List[int]:
        """Categories with at least one observed relation."""
        return self._categories.tolist()

    def for_category(self, category_id: int) -> List[int]:
        """The k key relation ids of ``category_id``."""
        row = self._categories.searchsorted(category_id)
        if row == len(self._categories) or self._categories[row] != category_id:
            raise KeyError(f"category {category_id} has no observed relations")
        return self._rows[row].tolist()

    def for_item(self, entity_id: int) -> List[int]:
        """The k key relation ids of the item's category."""
        row = self._items.searchsorted(entity_id)
        if row == len(self._items) or self._items[row] != entity_id:
            raise KeyError(f"entity {entity_id} is not a known item")
        return self.for_category(self._item_category[row])

    def for_items(self, entity_ids: Sequence[int]) -> np.ndarray:
        """Key relations for a batch of items, shape (batch, k)."""
        return np.asarray([self.for_item(e) for e in entity_ids], dtype=np.int64)

    def items(self) -> List[int]:
        """All known item entity ids, ascending (public: serialization
        and fallback computation must not reach into internals)."""
        return self._items.tolist()

    def freeze(self) -> "KeyRelationTable":
        """The selection as the table a server holds: one row per item
        whose category has observed relations (an item of any other
        category cannot be answered for, so it is not in the table)."""
        answerable = self._row_of_item >= 0
        return KeyRelationTable(
            self._items[answerable], self._rows[self._row_of_item[answerable]]
        )


class KeyRelationTable:
    """The served key relations: item ids ascending beside their rows.

    ``item_ids`` is (N,) and ``key_relations`` (N, k), both int64 — the
    two tables of that name in a server snapshot — so a batch lookup is
    one ``searchsorted`` and one take.
    """

    def __init__(self, item_ids: np.ndarray, key_relations: np.ndarray) -> None:
        order = np.argsort(item_ids, kind="stable")
        self.item_ids = item_ids[order]
        self.key_relations = key_relations[order]

    def for_items(self, entity_ids: np.ndarray) -> np.ndarray:
        """Key relations of a (B,) int64 array of item ids, shape (B, k)."""
        rows = self.item_ids.searchsorted(entity_ids)
        # An id past the last known one lands on row N: clipped, it is
        # compared with the last id, which it cannot equal.
        known = (
            self.item_ids.take(rows, mode="clip") == entity_ids
            if self.item_ids.size
            else np.zeros(entity_ids.shape, dtype=bool)
        )
        if not known.all():
            unknown = int(entity_ids[~known][0])
            raise KeyError(f"entity {unknown} is not a known item")
        return self.key_relations.take(rows, axis=0)
