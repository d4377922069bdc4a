"""Tests for the networkx graph view and audit utilities."""

import pytest

from repro.data import CatalogConfig, generate_catalog
from repro.kg import (
    TripleStore,
    connected_component_sizes,
    shared_value_neighbors,
    to_networkx,
)


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(
        CatalogConfig(
            num_categories=3,
            products_per_category=8,
            min_items_per_product=2,
            max_items_per_product=3,
            seed=2,
        )
    )


class TestToNetworkx:
    def test_edge_and_node_counts(self, catalog):
        graph = to_networkx(catalog.store, catalog.entities, catalog.relations)
        assert graph.number_of_edges() == len(catalog.store)
        assert graph.number_of_nodes() == len(catalog.store.entities())

    def test_node_kinds(self, catalog):
        graph = to_networkx(catalog.store, catalog.entities, catalog.relations)
        item = catalog.items[0]
        assert graph.nodes[item.entity_id]["kind"] == "item"
        some_value = catalog.store.triples_with_head(item.entity_id)[0].tail
        assert graph.nodes[some_value]["kind"] == "value"

    def test_edge_labels(self, catalog):
        graph = to_networkx(catalog.store, catalog.entities, catalog.relations)
        _, _, data = next(iter(graph.edges(data=True)))
        assert data["label"] in catalog.relations

    def test_without_vocabularies(self):
        store = TripleStore([(0, 0, 1)])
        graph = to_networkx(store)
        assert graph.nodes[0]["kind"] == "unknown"

    def test_parallel_edges_preserved(self):
        store = TripleStore([(0, 0, 1), (0, 1, 1)])
        graph = to_networkx(store)
        assert graph.number_of_edges() == 2


class TestAudits:
    def test_catalog_kg_is_highly_connected(self, catalog):
        """Shared brands/colors should merge almost everything."""
        sizes = connected_component_sizes(catalog.store)
        assert sizes[0] > 0.5 * len(catalog.store.entities())

    def test_component_sizes_sorted_and_partition(self, catalog):
        sizes = connected_component_sizes(catalog.store)
        assert sizes == sorted(sizes, reverse=True)
        assert sum(sizes) == len(catalog.store.entities())

    def test_shared_value_neighbors_finds_siblings(self, catalog):
        """Listings of the same product top the shared-value ranking."""
        product = next(
            p for p in catalog.products if len(catalog.items_of_product(p.product_id)) >= 2
        )
        siblings = catalog.items_of_product(product.product_id)
        anchor = siblings[0]
        ranked = shared_value_neighbors(catalog.store, anchor.entity_id, limit=5)
        top_ids = [entity for entity, _ in ranked[:3]]
        assert any(s.entity_id in top_ids for s in siblings[1:])

    def test_shared_value_neighbors_excludes_self(self, catalog):
        anchor = catalog.items[0].entity_id
        ranked = shared_value_neighbors(catalog.store, anchor)
        assert all(entity != anchor for entity, _ in ranked)

    def test_shared_value_counts_descending(self, catalog):
        ranked = shared_value_neighbors(catalog.store, catalog.items[0].entity_id)
        counts = [count for _, count in ranked]
        assert counts == sorted(counts, reverse=True)
