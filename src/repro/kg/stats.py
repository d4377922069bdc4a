"""KG statistics in the shape of the paper's Table II.

Table II reports, for PKG-sub: # items, # entity, # relation, # Triples.
:func:`kg_statistics` computes the same row for any store + vocab pair;
the Table II bench prints it next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .store import TripleStore
from .vocab import EntityVocabulary, RelationVocabulary


@dataclass(frozen=True)
class KGStatistics:
    """The four columns of the paper's Table II, plus degree detail."""

    num_items: int
    num_entities: int
    num_relations: int
    num_triples: int
    mean_triples_per_item: float
    median_relation_frequency: float

    def as_table_row(self, name: str = "PKG-sub (synthetic)") -> str:
        """Format like Table II: name | # items | # entity | # relation | # Triples."""
        return (
            f"{name} | {self.num_items:,} | {self.num_entities:,} | "
            f"{self.num_relations:,} | {self.num_triples:,}"
        )


def kg_statistics(
    store: TripleStore,
    entities: EntityVocabulary,
    relations: RelationVocabulary,
) -> KGStatistics:
    """Compute Table II statistics for a product KG."""
    item_ids = np.asarray(entities.item_ids(), dtype=np.int64)
    heads = store.to_array()[:, 0]
    triples_per_item = np.bincount(heads, minlength=len(entities))[item_ids]
    relation_freq = list(store.relation_counts().values())
    return KGStatistics(
        num_items=entities.num_items,
        num_entities=len(entities),
        num_relations=len(relations),
        num_triples=len(store),
        mean_triples_per_item=float(np.mean(triples_per_item)) if len(item_ids) else 0.0,
        median_relation_frequency=float(np.median(relation_freq)) if relation_freq else 0.0,
    )
