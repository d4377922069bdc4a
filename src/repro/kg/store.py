"""Indexed triple store — the symbolic heart of the product KG.

The paper's platform serves two symbolic query shapes (§II):

* triple queries  — ``SELECT ?t WHERE {h r ?t}``
* relation queries — ``SELECT ?r WHERE {h ?r ?t}``

:class:`TripleStore` indexes triples so both run in O(answer size),
provides membership tests for negative-sampling filters, and exposes
the numpy view the trainers consume.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np


class Triple(NamedTuple):
    """An (head, relation, tail) fact with integer ids."""

    head: int
    relation: int
    tail: int


class TripleStore:
    """An in-memory triple store with hash indexes.

    Maintains indexes by (h, r), by head, by tail, and by relation, which
    back the paper's two query services as well as filtered ranking
    evaluation for link prediction.  Beside them, every accepted triple's
    three ids are appended to one int64 column buffer, so
    :meth:`to_array` is one copy rather than a walk over the triples.
    """

    def __init__(self, triples: Optional[Iterable[Tuple[int, int, int]]] = None) -> None:
        self._triples: List[Triple] = []
        # The int64 column: triple i's ids in slots 3i..3i+2.  Its capacity
        # doubles when full, so it is reallocated about log2(N) times as the
        # store grows.  With array's own ~6 % growth it was reallocated 122
        # times for bulk_ram's 72k-triple catalog, and bulk_ram then served
        # 4-7 % slower, after the catalog was freed.
        self._column = array("q", bytes(8 * 3 * 16))
        self._triple_set: Set[Triple] = set()
        self._by_head_relation: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._by_head: Dict[int, List[Triple]] = defaultdict(list)
        self._by_tail: Dict[int, List[Triple]] = defaultdict(list)
        self._by_relation: Dict[int, List[Triple]] = defaultdict(list)
        self._relations_of_head: Dict[int, Set[int]] = defaultdict(set)
        if triples is not None:
            for h, r, t in triples:
                self.add(h, r, t)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, head: int, relation: int, tail: int) -> bool:
        """Insert a triple; returns False if it was already present.

        An id outside int64 raises ``OverflowError`` and leaves the store
        as it was (the column only counts slots of stored triples)."""
        triple = Triple(int(head), int(relation), int(tail))
        if triple in self._triple_set:
            return False
        at = 3 * len(self._triples)
        if at == len(self._column):
            self._column *= 2
        self._column[at], self._column[at + 1], self._column[at + 2] = triple
        self._triples.append(triple)
        self._triple_set.add(triple)
        self._by_head_relation[(triple.head, triple.relation)].append(triple.tail)
        self._by_head[triple.head].append(triple)
        self._by_tail[triple.tail].append(triple)
        self._by_relation[triple.relation].append(triple)
        self._relations_of_head[triple.head].add(triple.relation)
        return True

    def add_all(self, triples: Iterable[Tuple[int, int, int]]) -> int:
        """Insert many triples; returns the number actually added."""
        return sum(1 for h, r, t in triples if self.add(h, r, t))

    # ------------------------------------------------------------------
    # The paper's two symbolic queries
    # ------------------------------------------------------------------
    def tails(self, head: int, relation: int) -> List[int]:
        """Triple query: all ``?t`` with ``(head, relation, ?t)`` present."""
        return list(self._by_head_relation.get((head, relation), ()))

    def relations_of(self, head: int) -> Set[int]:
        """Relation query: all ``?r`` such that ``(head, ?r, ?t)`` exists."""
        return set(self._relations_of_head.get(head, ()))

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def __contains__(self, triple: Tuple[int, int, int]) -> bool:
        h, r, t = triple
        return Triple(int(h), int(r), int(t)) in self._triple_set

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def triples_with_head(self, head: int) -> List[Triple]:
        return list(self._by_head.get(head, ()))

    def triples_with_tail(self, tail: int) -> List[Triple]:
        return list(self._by_tail.get(tail, ()))

    def triples_with_relation(self, relation: int) -> List[Triple]:
        return list(self._by_relation.get(relation, ()))

    def relation_counts(self) -> Dict[int, int]:
        """Number of triples per relation (long-tail pruning, Table II prep)."""
        return {r: len(ts) for r, ts in self._by_relation.items()}

    def heads(self) -> Set[int]:
        return set(self._by_head)

    def entities(self) -> Set[int]:
        """Every entity id appearing as head or tail."""
        return set(self._by_head) | set(self._by_tail)

    def relations(self) -> Set[int]:
        return set(self._by_relation)

    # ------------------------------------------------------------------
    # Array views for training
    # ------------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """All triples as a fresh, writable (N, 3) int64 array in
        insertion order: one copy of the column buffer."""
        count = 3 * len(self._triples)
        return np.frombuffer(self._column, np.int64, count).reshape(-1, 3).copy()

    def filter_relations(self, min_count: int) -> "TripleStore":
        """New store dropping relations rarer than ``min_count``.

        Mirrors the paper's pre-processing: "we remove the attributes
        with occurrences less than 5000 in PKG" (§III-A1), scaled to the
        synthetic KG by the caller's ``min_count``.
        """
        counts = self.relation_counts()
        keep = {r for r, c in counts.items() if c >= min_count}
        return TripleStore(
            (t.head, t.relation, t.tail) for t in self._triples if t.relation in keep
        )
