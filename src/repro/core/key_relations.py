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

from collections import Counter, defaultdict
from typing import Dict, List, Mapping, Optional, Sequence

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
        self._item_to_category = dict(item_to_category)
        self._table = self._build_table(store)

    def _build_table(self, store: TripleStore) -> Dict[int, List[int]]:
        frequency: Dict[int, Counter] = defaultdict(Counter)
        for entity_id, category_id in self._item_to_category.items():
            for triple in store.triples_with_head(entity_id):
                frequency[category_id][triple.relation] += 1

        table: Dict[int, List[int]] = {}
        for category_id, counts in frequency.items():
            # Sort by frequency desc, then relation id asc for determinism.
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            chosen = [relation for relation, _ in ranked[: self.k]]
            if not chosen:
                continue
            while len(chosen) < self.k:  # pad rare categories by cycling
                chosen.append(chosen[len(chosen) % len(ranked)])
            table[category_id] = chosen
        return table

    def categories(self) -> List[int]:
        """Categories with at least one observed relation."""
        return sorted(self._table)

    def for_category(self, category_id: int) -> List[int]:
        """The k key relation ids of ``category_id``."""
        if category_id not in self._table:
            raise KeyError(f"category {category_id} has no observed relations")
        return list(self._table[category_id])

    def for_item(self, entity_id: int) -> List[int]:
        """The k key relation ids of the item's category."""
        category_id = self._item_to_category.get(entity_id)
        if category_id is None:
            raise KeyError(f"entity {entity_id} is not a known item")
        return self.for_category(category_id)

    def for_items(self, entity_ids: Sequence[int]) -> np.ndarray:
        """Key relations for a batch of items, shape (batch, k)."""
        return np.asarray([self.for_item(e) for e in entity_ids], dtype=np.int64)

    def items(self) -> List[int]:
        """All known item entity ids, ascending (public: serialization
        and fallback computation must not reach into internals)."""
        return sorted(self._item_to_category)

    def freeze(self) -> "KeyRelationTable":
        """The selection as the table a server holds: one row per item
        whose category has observed relations (an item of any other
        category cannot be answered for, so it is not in the table)."""
        categories = self.categories()
        rows = np.asarray(
            [self._table[category] for category in categories], dtype=np.int64
        ).reshape(-1, self.k)
        count = len(self._item_to_category)
        items = np.fromiter(self._item_to_category, np.int64, count)
        of_item = np.fromiter(self._item_to_category.values(), np.int64, count)
        answerable = np.isin(of_item, categories)
        return KeyRelationTable(
            items[answerable],
            rows[np.searchsorted(categories, of_item[answerable])],
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
