"""Graph-analytic view of the product KG (networkx bridge).

The production PKG team runs graph analytics (connectivity, degree
audits, category coherence) as data-quality checks before pre-training.
This module exposes the same checks on the synthetic KG: a typed
networkx projection plus the audit queries the benches and examples
report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from .store import TripleStore
from .vocab import EntityVocabulary, RelationVocabulary


def to_networkx(
    store: TripleStore,
    entities: Optional[EntityVocabulary] = None,
    relations: Optional[RelationVocabulary] = None,
) -> nx.MultiDiGraph:
    """Project the triple store to a labelled ``MultiDiGraph``.

    Nodes carry ``kind`` ("item"/"value") when an entity vocabulary is
    supplied; edges carry the relation id and, when available, its label.
    """
    graph = nx.MultiDiGraph()
    for triple in store:
        if not graph.has_node(triple.head):
            graph.add_node(triple.head, kind=_kind(entities, triple.head))
        if not graph.has_node(triple.tail):
            graph.add_node(triple.tail, kind=_kind(entities, triple.tail))
        label = (
            relations.label_of(triple.relation) if relations is not None else None
        )
        graph.add_edge(
            triple.head, triple.tail, relation=triple.relation, label=label
        )
    return graph


def _kind(entities: Optional[EntityVocabulary], entity_id: int) -> str:
    if entities is None:
        return "unknown"
    return "item" if entities.is_item(entity_id) else "value"


def connected_component_sizes(store: TripleStore) -> List[int]:
    """Sizes of weakly connected components, largest first.

    A healthy product KG is dominated by one giant component: items
    connect through shared attribute values (every item with a brand is
    two hops from every other item of that brand).
    """
    graph = to_networkx(store)
    return sorted(
        (len(c) for c in nx.weakly_connected_components(graph)), reverse=True
    )


def shared_value_neighbors(
    store: TripleStore, entity_id: int, limit: int = 10
) -> List[Tuple[int, int]]:
    """Items ranked by the number of attribute values shared with ``entity_id``.

    The symbolic analogue of item-embedding similarity: two listings of
    the same product share nearly all values, which is why TransE pulls
    their embeddings together.  Returns ``(item_id, shared_count)``
    pairs, most-shared first.
    """
    my_tails = {t.tail for t in store.triples_with_head(entity_id)}
    counts: Dict[int, int] = {}
    for tail in my_tails:
        for triple in store.triples_with_tail(tail):
            if triple.head != entity_id:
                counts[triple.head] = counts.get(triple.head, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:limit]
