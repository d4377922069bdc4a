"""Symbolic query layer over :class:`repro.kg.TripleStore`.

Implements the two query forms from §II of the paper as small result
objects, so examples and tests can demonstrate the *symbolic* service
that PKGM's vector-space service replaces:

.. code-block:: sparql

    SELECT ?t WHERE { h r ?t }      # triple query
    SELECT ?r WHERE { h ?r ?t }     # relation query

"Combining these two types of queries, we could recover all triples in
a knowledge graph" — :func:`recover_all_triples` does exactly that and
is property-tested against the store contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

from .store import TripleStore


@dataclass(frozen=True)
class TripleQueryResult:
    """Answer to ``SELECT ?t WHERE {h r ?t}``."""

    head: int
    relation: int
    tails: Tuple[int, ...]

    @property
    def exists(self) -> bool:
        return bool(self.tails)


@dataclass(frozen=True)
class RelationQueryResult:
    """Answer to ``SELECT ?r WHERE {h ?r ?t}``."""

    head: int
    relations: Tuple[int, ...]

    def has(self, relation: int) -> bool:
        return relation in self.relations


class QueryEngine:
    """Executes the paper's two symbolic query shapes against a store."""

    def __init__(self, store: TripleStore) -> None:
        self._store = store

    def triple_query(self, head: int, relation: int) -> TripleQueryResult:
        """``SELECT ?t WHERE {head relation ?t}``."""
        return TripleQueryResult(
            head=head,
            relation=relation,
            tails=tuple(self._store.tails(head, relation)),
        )

    def relation_query(self, head: int) -> RelationQueryResult:
        """``SELECT ?r WHERE {head ?r ?t}``."""
        return RelationQueryResult(
            head=head,
            relations=tuple(sorted(self._store.relations_of(head))),
        )


def recover_all_triples(engine: QueryEngine, store: TripleStore) -> Set[Tuple[int, int, int]]:
    """Reconstruct the full triple set using only the two query services.

    Demonstrates the paper's claim that triple queries plus relation
    queries are sufficient to recover every triple: for each head, ask
    which relations it has, then ask for the tails of each (head,
    relation) pair.
    """
    recovered: Set[Tuple[int, int, int]] = set()
    for head in store.heads():
        relations = engine.relation_query(head).relations
        for relation in relations:
            result = engine.triple_query(head, relation)
            for tail in result.tails:
                recovered.add((head, relation, tail))
    return recovered
