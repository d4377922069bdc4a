"""``KeyRelationSelector`` against a per-item ``Counter`` reference.

The reference is the selector written the plain way: walk every item's
triples, count relations per category in a ``Counter``, sort each
category by (-count, relation id), keep the first k and pad a short list
by cycling it.  The selector counts the same pairs over the store's int64
column; every category list, every ``for_item`` and every row of the
frozen table must equal the reference's.
"""

from collections import Counter, defaultdict
from typing import Dict, List, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KeyRelationSelector
from repro.data import CatalogConfig, generate_catalog
from repro.kg import TripleStore


def reference_table(
    store: TripleStore, item_to_category: Mapping[int, int], k: int
) -> Dict[int, List[int]]:
    """Category id -> its k key relations, by a Counter per category."""
    frequency: Dict[int, Counter] = defaultdict(Counter)
    for entity_id, category_id in item_to_category.items():
        for triple in store.triples_with_head(entity_id):
            frequency[category_id][triple.relation] += 1

    table: Dict[int, List[int]] = {}
    for category_id, counts in frequency.items():
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        chosen = [relation for relation, _ in ranked[:k]]
        while len(chosen) < k:  # pad rare categories by cycling
            chosen.append(chosen[len(chosen) % len(ranked)])
        table[category_id] = chosen
    return table


def assert_matches_reference(store, item_to_category, k):
    want = reference_table(store, item_to_category, k)
    selector = KeyRelationSelector(store, item_to_category, k=k)

    assert selector.categories() == sorted(want)
    for category, relations in want.items():
        assert selector.for_category(category) == relations
    assert selector.items() == sorted(item_to_category)
    for item, category in item_to_category.items():
        if category in want:
            assert selector.for_item(item) == want[category]
        else:
            with pytest.raises(KeyError):
                selector.for_item(item)

    frozen = selector.freeze()
    answerable = sorted(i for i, c in item_to_category.items() if c in want)
    assert frozen.item_ids.dtype == np.int64
    assert frozen.key_relations.dtype == np.int64
    assert frozen.item_ids.tolist() == answerable
    assert frozen.key_relations.shape == (len(answerable), k)
    assert frozen.key_relations.tolist() == [
        want[item_to_category[item]] for item in answerable
    ]


#: Sparse on purpose: a selector sized by the largest id would not fit.
CATEGORY_IDS = st.sampled_from([0, 1, 7, 10**12, 2**62])
RELATION_IDS = st.one_of(st.integers(0, 5), st.sampled_from([10**12, 2**40 + 3]))


@st.composite
def catalogs(draw):
    """(store, item -> category, k): items with and without triples,
    heads that are not items, frequency ties and duplicate adds."""
    items = draw(st.lists(st.integers(0, 30), unique=True, max_size=12))
    item_to_category = {item: draw(CATEGORY_IDS) for item in items}
    # Heads that are not items fall below, between and above the items;
    # draws from small pools make ties and repeated triples (which the
    # store rejects) common.
    heads = st.integers(-5, 40).filter(lambda head: head not in item_to_category)
    if items:
        heads = st.one_of(st.sampled_from(items), heads)
    triples = draw(
        st.lists(st.tuples(heads, RELATION_IDS, st.integers(0, 3)), max_size=60)
    )
    store = TripleStore()
    for head, relation, tail in triples:
        store.add(head, relation, tail)
    return store, item_to_category, draw(st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(catalogs())
def test_selector_equals_reference(case):
    assert_matches_reference(*case)


def test_selector_equals_reference_on_a_catalog():
    catalog = generate_catalog(
        CatalogConfig(num_categories=6, products_per_category=20, seed=3)
    )
    categories = {item.entity_id: item.category_id for item in catalog.items}
    for k in (1, 3, 10, 40):
        assert_matches_reference(catalog.store, categories, k)


def test_ties_rank_by_relation_id():
    store = TripleStore([(0, 9, 1), (0, 4, 1), (1, 9, 2), (1, 4, 2), (1, 6, 2)])
    selector = KeyRelationSelector(store, {0: 5, 1: 5}, k=3)
    assert selector.for_category(5) == [4, 9, 6]


def test_items_without_triples_and_non_item_heads():
    store = TripleStore([(0, 1, 9), (50, 2, 9), (50, 2, 8)])
    selector = KeyRelationSelector(store, {0: 1, 1: 1, 2: 2}, k=2)
    assert selector.categories() == [1]
    assert selector.for_item(1) == [1, 1]
    with pytest.raises(KeyError):
        selector.for_item(2)  # its category has no observed relation
    with pytest.raises(KeyError):
        selector.for_item(50)  # a head, not an item
    assert selector.freeze().item_ids.tolist() == [0, 1]


def test_empty_inputs():
    selector = KeyRelationSelector(TripleStore(), {}, k=3)
    assert selector.categories() == []
    assert selector.items() == []
    frozen = selector.freeze()
    assert frozen.item_ids.shape == (0,)
    assert frozen.key_relations.shape == (0, 3)


def test_relation_span_wider_than_int64_keys_is_refused():
    store = TripleStore([(0, -(2**62), 1), (0, 2**62, 1)])
    with pytest.raises(OverflowError):
        KeyRelationSelector(store, {0: 3}, k=2)
