"""Serialization for triple stores and vocabularies.

Two formats:

* TSV — human-inspectable ``head\\trelation\\ttail`` label files, the
  lingua franca of public KGE datasets (FB15k-style).
* NPZ — compact integer arrays for fast reload of large synthetic KGs;
  labels are fixed-width unicode arrays, so loading never unpickles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from .store import TripleStore
from .vocab import EntityVocabulary, RelationVocabulary

PathLike = Union[str, Path]


def save_triples_tsv(
    path: PathLike,
    store: TripleStore,
    entities: EntityVocabulary,
    relations: RelationVocabulary,
) -> None:
    """Write triples as tab-separated labels, one per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for triple in store:
            handle.write(
                f"{entities.label_of(triple.head)}\t"
                f"{relations.label_of(triple.relation)}\t"
                f"{entities.label_of(triple.tail)}\n"
            )


def load_triples_tsv(
    path: PathLike,
) -> Tuple[TripleStore, EntityVocabulary, RelationVocabulary]:
    """Read a TSV triple file, building fresh vocabularies.

    Entities appearing as heads are registered as items (the product KG
    convention: items are always subjects of property triples).
    """
    entities = EntityVocabulary()
    relations = RelationVocabulary()
    store = TripleStore()
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no}: expected 3 columns, got {len(parts)}")
            head, relation, tail = parts
            h = entities.add_item(head)
            r = relations.add_property(relation)
            t = entities.add_value(tail)
            store.add(h, r, t)
    return store, entities, relations


def save_kg_npz(
    path: PathLike,
    store: TripleStore,
    entities: EntityVocabulary,
    relations: RelationVocabulary,
) -> None:
    """Save store + vocabularies to a single compressed npz file."""
    path = Path(path)
    np.savez_compressed(
        path,
        triples=store.to_array(),
        entity_labels=np.asarray(entities.labels(), dtype=str),
        item_ids=np.asarray(entities.item_ids(), dtype=np.int64),
        relation_labels=np.asarray(relations.labels(), dtype=str),
        property_ids=np.asarray(relations.property_ids(), dtype=np.int64),
    )


def load_kg_npz(
    path: PathLike,
) -> Tuple[TripleStore, EntityVocabulary, RelationVocabulary]:
    """Load a KG saved by :func:`save_kg_npz` — never unpickling: an old
    file with object-dtype label arrays is refused with ``ValueError``."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        triples = data["triples"]
        try:
            entity_labels = list(data["entity_labels"])
            relation_labels = list(data["relation_labels"])
        except ValueError as error:
            raise ValueError(
                f"{path} stores its labels as pickled object arrays, which "
                "are no longer loaded; re-export it with save_kg_npz"
            ) from error
        item_ids = set(int(i) for i in data["item_ids"])
        property_ids = set(int(i) for i in data["property_ids"])

    entities = EntityVocabulary()
    for i, label in enumerate(entity_labels):
        if i in item_ids:
            entities.add_item(str(label))
        else:
            entities.add_value(str(label))
    relations = RelationVocabulary()
    for i, label in enumerate(relation_labels):
        if i in property_ids:
            relations.add_property(str(label))
        else:
            relations.add_item_relation(str(label))
    store = TripleStore(map(tuple, triples))
    return store, entities, relations
