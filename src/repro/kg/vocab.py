"""Bidirectional label <-> integer-id vocabularies for KG symbols.

The paper's product KG distinguishes items from values within the entity
set (E = I ∪ V) and properties from item-item relations within the
relation set (R = P ∪ R').  :class:`EntityVocabulary` preserves the
item/value partition so downstream code (key-relation selection,
service vector lookup) can reason about it; the generated catalog has
properties only, so :class:`RelationVocabulary` needs no partition.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional


class Vocabulary:
    """Assigns dense integer ids to string labels, insertion-ordered."""

    def __init__(self, labels: Optional[Iterable[str]] = None) -> None:
        self._label_to_id: Dict[str, int] = {}
        self._labels: List[str] = []
        if labels is not None:
            for label in labels:
                self.add(label)

    def add(self, label: str) -> int:
        """Insert ``label`` if new; return its id either way."""
        existing = self._label_to_id.get(label)
        if existing is not None:
            return existing
        new_id = len(self._labels)
        self._label_to_id[label] = new_id
        self._labels.append(label)
        return new_id

    def id_of(self, label: str) -> int:
        """Return the id of ``label``; raises ``KeyError`` if absent."""
        return self._label_to_id[label]

    def label_of(self, index: int) -> str:
        """Return the label with id ``index``; raises ``IndexError`` if absent."""
        if index < 0 or index >= len(self._labels):
            raise IndexError(f"id {index} out of range [0, {len(self._labels)})")
        return self._labels[index]

    def __contains__(self, label: str) -> bool:
        return label in self._label_to_id

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)


class EntityVocabulary(Vocabulary):
    """Entity vocabulary partitioned into items (I) and values (V)."""

    def __init__(self) -> None:
        super().__init__()
        self._item_ids: set = set()

    def add_item(self, label: str) -> int:
        """Register an item entity (a sellable listing)."""
        eid = self.add(label)
        self._item_ids.add(eid)
        return eid

    def add_value(self, label: str) -> int:
        """Register a value entity (an attribute value like 'Apple')."""
        return self.add(label)

    def is_item(self, index: int) -> bool:
        return index in self._item_ids

    @property
    def num_items(self) -> int:
        return len(self._item_ids)

    def item_ids(self) -> List[int]:
        """All item entity ids, sorted."""
        return sorted(self._item_ids)


class RelationVocabulary(Vocabulary):
    """Relation vocabulary; the catalog registers only properties (P)."""

    def add_property(self, label: str) -> int:
        """Register an item property (brand, color, ...)."""
        return self.add(label)
