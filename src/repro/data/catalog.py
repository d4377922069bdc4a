"""Synthetic product catalog and product-KG builder.

This is the substitution for the proprietary Alibaba PKG (Table II's
PKG-sub).  The generative process mirrors how the real graph arises:

1. *Products* are platonic records: a category plus a full ground-truth
   attribute assignment.
2. *Items* are seller listings of a product.  Several sellers list the
   same product (the basis of the alignment task), and each seller
   fills only a subset of the attribute fields — omissions produce the
   KG's incompleteness, occasional errors produce its noise.
3. The *product KG* contains one ``(item, relation, value)`` triple per
   seller-filled attribute.  The item category is platform metadata and
   deliberately NOT a KG relation, so PKGM cannot leak the
   classification label directly.

Products optionally carry a **model code** attribute (``modelIs``,
value ``md-<product_id>``) — the synthetic analogue of the model/SKU
strings ("iPhone XI 256GB") that real sellers put in titles.  Model
codes are what make same-product alignment learnable from text, and
their KG triples are what let PKGM answer it from the graph side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..kg import EntityVocabulary, RelationVocabulary, TripleStore
from .schema import CategorySpec, build_default_schema

MODEL_RELATION = "modelIs"


@dataclass(frozen=True)
class CatalogConfig:
    """Scale and noise knobs for catalog generation.

    Defaults produce a catalog that pre-trains in seconds; benchmarks
    scale ``num_categories`` / ``products_per_category`` up.
    """

    num_categories: int = 12
    products_per_category: int = 25
    min_items_per_product: int = 1
    max_items_per_product: int = 4
    attribute_error_probability: float = 0.02
    seed: int = 0
    brand_pool_size: int = 40
    brands_per_category: int = 8
    noun_pool_size: Optional[int] = None
    include_model_codes: bool = True
    model_fill_probability: float = 0.85

    def __post_init__(self) -> None:
        if self.num_categories < 1:
            raise ValueError("num_categories must be >= 1")
        if self.products_per_category < 1:
            raise ValueError("products_per_category must be >= 1")
        if not 1 <= self.min_items_per_product <= self.max_items_per_product:
            raise ValueError("need 1 <= min_items_per_product <= max_items_per_product")
        if not 0.0 <= self.attribute_error_probability < 1.0:
            raise ValueError("attribute_error_probability must be in [0, 1)")
        if not 0.0 < self.model_fill_probability <= 1.0:
            raise ValueError("model_fill_probability must be in (0, 1]")


@dataclass(frozen=True)
class ProductRecord:
    """Ground-truth product: full attribute assignment."""

    product_id: int
    category_id: int
    attributes: Dict[str, str]


@dataclass(frozen=True)
class ItemRecord:
    """One seller listing of a product.

    ``attributes`` holds only what the seller filled (possibly with
    errors); ``entity_id`` is the item's id in the KG entity vocabulary.
    """

    item_id: int
    entity_id: int
    label: str
    product_id: int
    category_id: int
    attributes: Dict[str, str]


@dataclass
class Catalog:
    """The generated catalog plus its KG view."""

    config: CatalogConfig
    schema: List[CategorySpec]
    products: List[ProductRecord]
    items: List[ItemRecord]
    store: TripleStore
    entities: EntityVocabulary
    relations: RelationVocabulary

    def items_of_product(self, product_id: int) -> List[ItemRecord]:
        return [item for item in self.items if item.product_id == product_id]

    def items_of_category(self, category_id: int) -> List[ItemRecord]:
        return [item for item in self.items if item.category_id == category_id]

    def category_of_entity(self, entity_id: int) -> int:
        return self._entity_to_category[entity_id]

    def __post_init__(self) -> None:
        self._entity_to_category = {
            item.entity_id: item.category_id for item in self.items
        }


def generate_catalog(
    config: CatalogConfig,
    schema: Optional[List[CategorySpec]] = None,
) -> Catalog:
    """Generate a full catalog (products, items, KG) from ``config``.

    Deterministic given ``config.seed``.
    """
    rng = np.random.default_rng(config.seed)
    if schema is None:
        schema = build_default_schema(
            config.num_categories,
            rng,
            brand_pool_size=config.brand_pool_size,
            brands_per_category=config.brands_per_category,
            noun_pool_size=config.noun_pool_size,
        )

    entities = EntityVocabulary()
    relations = RelationVocabulary()
    store = TripleStore()
    products: List[ProductRecord] = []
    items: List[ItemRecord] = []

    # Pre-register relations in schema order for stable ids.
    for category in schema:
        for attribute in category.attributes:
            relations.add_property(attribute.relation)
    if config.include_model_codes:
        relations.add_property(MODEL_RELATION)

    for category in schema:
        for _ in range(config.products_per_category):
            product_id = len(products)
            truth = _sample_product_attributes(category, rng)
            if config.include_model_codes:
                truth[MODEL_RELATION] = f"md-{product_id}"
            products.append(
                ProductRecord(
                    product_id=product_id,
                    category_id=category.category_id,
                    attributes=truth,
                )
            )
            n_items = int(
                rng.integers(
                    config.min_items_per_product, config.max_items_per_product + 1
                )
            )
            for _ in range(n_items):
                item_id = len(items)
                label = f"item_{item_id}"
                entity_id = entities.add_item(label)
                filled = _seller_fill(category, truth, config, rng)
                for relation_label, value_label in filled.items():
                    r = relations.id_of(relation_label)
                    v = entities.add_value(f"{relation_label}:{value_label}")
                    store.add(entity_id, r, v)
                items.append(
                    ItemRecord(
                        item_id=item_id,
                        entity_id=entity_id,
                        label=label,
                        product_id=product_id,
                        category_id=category.category_id,
                        attributes=filled,
                    )
                )

    return Catalog(
        config=config,
        schema=schema,
        products=products,
        items=items,
        store=store,
        entities=entities,
        relations=relations,
    )


def _sample_product_attributes(
    category: CategorySpec, rng: np.random.Generator
) -> Dict[str, str]:
    """Ground-truth attributes: every schema attribute gets a value."""
    return {
        attribute.relation: attribute.values[int(rng.integers(len(attribute.values)))]
        for attribute in category.attributes
    }


def _seller_fill(
    category: CategorySpec,
    truth: Dict[str, str],
    config: CatalogConfig,
    rng: np.random.Generator,
) -> Dict[str, str]:
    """Simulate a seller filling the attribute form.

    Each attribute is filled with its template's ``fill_probability``;
    a filled value is wrong with ``attribute_error_probability``.
    """
    filled: Dict[str, str] = {}
    for attribute in category.attributes:
        if rng.random() > attribute.fill_probability:
            continue
        value = truth[attribute.relation]
        if rng.random() < config.attribute_error_probability and len(attribute.values) > 1:
            alternatives = [v for v in attribute.values if v != value]
            value = alternatives[int(rng.integers(len(alternatives)))]
        filled[attribute.relation] = value
    if config.include_model_codes and rng.random() <= config.model_fill_probability:
        # Model codes are copied, never mistyped: sellers paste them.
        filled[MODEL_RELATION] = truth[MODEL_RELATION]
    return filled
