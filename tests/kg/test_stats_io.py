"""Tests for KG statistics (Table II shape) and (de)serialization."""

import numpy as np
import pytest

from repro.kg import (
    EntityVocabulary,
    RelationVocabulary,
    TripleStore,
    kg_statistics,
    relation_frequency_table,
)
from repro.kg.io import load_kg_npz, load_triples_tsv, save_kg_npz, save_triples_tsv


@pytest.fixture
def kg():
    entities = EntityVocabulary()
    relations = RelationVocabulary()
    store = TripleStore()
    brand = relations.add_property("brandIs")
    color = relations.add_property("colorIs")
    same = relations.add_item_relation("same_product_as")
    apple = entities.add_value("Apple")
    green = entities.add_value("Green")
    for i in range(3):
        item = entities.add_item(f"item_{i}")
        store.add(item, brand, apple)
    store.add(entities.id_of("item_0"), color, green)
    store.add(entities.id_of("item_0"), same, entities.id_of("item_1"))
    return store, entities, relations


class TestStatistics:
    def test_table2_columns(self, kg):
        store, entities, relations = kg
        stats = kg_statistics(store, entities, relations)
        assert stats.num_items == 3
        assert stats.num_entities == 5  # 3 items + 2 values
        assert stats.num_relations == 3
        assert stats.num_triples == 5

    def test_mean_triples_per_item(self, kg):
        store, entities, relations = kg
        stats = kg_statistics(store, entities, relations)
        # item_0 has 3, item_1 and item_2 have 1 each.
        assert stats.mean_triples_per_item == pytest.approx(5 / 3)

    def test_table_row_format(self, kg):
        store, entities, relations = kg
        row = kg_statistics(store, entities, relations).as_table_row("X")
        assert row.startswith("X | 3 | 5 | 3 | 5")

    def test_relation_frequency_sorted(self, kg):
        store, entities, relations = kg
        table = relation_frequency_table(store, relations)
        assert list(table) == ["brandIs", "colorIs", "same_product_as"]
        assert table["brandIs"] == 3

    def test_empty_kg(self):
        stats = kg_statistics(TripleStore(), EntityVocabulary(), RelationVocabulary())
        assert stats.num_triples == 0
        assert stats.mean_triples_per_item == 0.0


class TestTsvRoundtrip:
    def test_roundtrip_preserves_triples(self, kg, tmp_path):
        store, entities, relations = kg
        path = tmp_path / "triples.tsv"
        save_triples_tsv(path, store, entities, relations)
        loaded_store, loaded_entities, loaded_relations = load_triples_tsv(path)
        original = {
            (entities.label_of(t.head), relations.label_of(t.relation), entities.label_of(t.tail))
            for t in store
        }
        reloaded = {
            (
                loaded_entities.label_of(t.head),
                loaded_relations.label_of(t.relation),
                loaded_entities.label_of(t.tail),
            )
            for t in loaded_store
        }
        assert original == reloaded

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only\ttwo\n")
        with pytest.raises(ValueError):
            load_triples_tsv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_text("a\tr\tb\n\n")
        store, _, _ = load_triples_tsv(path)
        assert len(store) == 1


class TestNpzRoundtrip:
    def test_roundtrip_preserves_everything(self, kg, tmp_path):
        store, entities, relations = kg
        path = tmp_path / "kg.npz"
        save_kg_npz(path, store, entities, relations)
        s2, e2, r2 = load_kg_npz(path)
        assert np.array_equal(store.to_array(), s2.to_array())
        assert e2.labels() == entities.labels()
        assert e2.item_ids() == entities.item_ids()
        assert r2.labels() == relations.labels()
        assert r2.property_ids() == relations.property_ids()

    def test_labels_are_stored_pickle_free(self, kg, tmp_path):
        store, entities, relations = kg
        path = tmp_path / "kg.npz"
        save_kg_npz(path, store, entities, relations)
        with np.load(path, allow_pickle=False) as data:
            assert data["entity_labels"].dtype.kind == "U"
            assert data["relation_labels"].dtype.kind == "U"

    def test_old_object_dtype_file_is_refused(self, kg, tmp_path):
        """The pre-unicode format pickled its label arrays; loading one
        must refuse (asking for a re-export), never unpickle."""
        store, entities, relations = kg
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            triples=store.to_array(),
            entity_labels=np.asarray(entities.labels(), dtype=object),
            item_ids=np.asarray(entities.item_ids(), dtype=np.int64),
            relation_labels=np.asarray(relations.labels(), dtype=object),
            property_ids=np.asarray(relations.property_ids(), dtype=np.int64),
        )
        with pytest.raises(ValueError, match="re-export"):
            load_kg_npz(path)
