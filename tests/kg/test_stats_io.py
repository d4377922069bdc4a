"""Tests for KG statistics (Table II shape)."""

import pytest

from repro.kg import (
    EntityVocabulary,
    RelationVocabulary,
    TripleStore,
    kg_statistics,
)


@pytest.fixture
def kg():
    entities = EntityVocabulary()
    relations = RelationVocabulary()
    store = TripleStore()
    brand = relations.add_property("brandIs")
    color = relations.add_property("colorIs")
    same = relations.add("same_product_as")
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

    def test_empty_kg(self):
        stats = kg_statistics(TripleStore(), EntityVocabulary(), RelationVocabulary())
        assert stats.num_triples == 0
        assert stats.mean_triples_per_item == 0.0

