"""Unit tests for vocabularies and the indexed triple store."""

import numpy as np
import pytest

from repro.kg import (
    EntityVocabulary,
    Triple,
    TripleStore,
    Vocabulary,
)


class TestVocabulary:
    def test_add_assigns_dense_ids(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 0
        assert vocab.add("b") == 1
        assert vocab.add("a") == 0  # idempotent

    def test_roundtrip(self):
        vocab = Vocabulary(["x", "y"])
        assert vocab.label_of(vocab.id_of("y")) == "y"

    def test_missing_label_raises(self):
        with pytest.raises(KeyError):
            Vocabulary().id_of("nope")

    def test_bad_id_raises(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(IndexError):
            vocab.label_of(1)
        with pytest.raises(IndexError):
            vocab.label_of(-1)

    def test_contains_len_iter(self):
        vocab = Vocabulary(["a", "b"])
        assert "a" in vocab and "c" not in vocab
        assert len(vocab) == 2
        assert list(vocab) == ["a", "b"]


class TestEntityVocabulary:
    def test_item_value_partition(self):
        vocab = EntityVocabulary()
        item = vocab.add_item("item_1")
        value = vocab.add_value("Apple")
        assert vocab.is_item(item)
        assert not vocab.is_item(value)
        assert vocab.num_items == 1
        assert vocab.item_ids() == [item]

    def test_shared_id_space(self):
        vocab = EntityVocabulary()
        vocab.add_item("i")
        vocab.add_value("v")
        assert len(vocab) == 2


@pytest.fixture
def small_store():
    # item 0: brand(10)=apple(100), color(11)=green(101)
    # item 1: brand(10)=apple(100)
    store = TripleStore()
    store.add(0, 10, 100)
    store.add(0, 11, 101)
    store.add(1, 10, 100)
    return store


class TestTripleStore:
    def test_add_deduplicates(self, small_store):
        assert not small_store.add(0, 10, 100)
        assert len(small_store) == 3

    def test_add_all_counts_new(self, small_store):
        added = small_store.add_all([(0, 10, 100), (2, 10, 100)])
        assert added == 1

    def test_contains(self, small_store):
        assert (0, 10, 100) in small_store
        assert (0, 10, 101) not in small_store

    def test_tails_triple_query(self, small_store):
        assert small_store.tails(0, 10) == [100]
        assert small_store.tails(0, 99) == []

    def test_multivalued_tails(self, small_store):
        small_store.add(0, 10, 102)
        assert sorted(small_store.tails(0, 10)) == [100, 102]

    def test_relations_of(self, small_store):
        assert small_store.relations_of(0) == {10, 11}
        assert small_store.relations_of(1) == {10}
        assert small_store.relations_of(999) == set()

    def test_triples_with_head_tail_relation(self, small_store):
        assert len(small_store.triples_with_head(0)) == 2
        assert len(small_store.triples_with_tail(100)) == 2
        assert len(small_store.triples_with_relation(10)) == 2

    def test_entities_and_relations(self, small_store):
        assert small_store.entities() == {0, 1, 100, 101}
        assert small_store.relations() == {10, 11}
        assert small_store.heads() == {0, 1}

    def test_to_array(self, small_store):
        arr = small_store.to_array()
        assert arr.shape == (3, 3)
        assert arr.dtype == np.int64
        assert (0, 10, 100) in small_store

    def test_to_array_empty(self):
        arr = TripleStore().to_array()
        assert arr.shape == (0, 3)
        assert arr.dtype == np.int64

    def test_to_array_is_fresh_writable_in_insertion_order(self, small_store):
        small_store.add(-7, 2**40, 5)
        arr = small_store.to_array()
        assert arr.dtype == np.int64
        assert arr.flags.writeable and arr.flags.owndata
        assert arr.tolist() == [[0, 10, 100], [0, 11, 101], [1, 10, 100], [-7, 2**40, 5]]
        assert arr.tolist() == [list(t) for t in small_store]
        assert not np.shares_memory(arr, small_store.to_array())

    def test_writing_into_to_array_changes_nothing(self, small_store):
        arr = small_store.to_array()
        arr[:] = -1
        assert small_store.to_array().tolist() == [[0, 10, 100], [0, 11, 101], [1, 10, 100]]
        assert (0, 10, 100) in small_store
        assert small_store.add(3, 10, 100)
        assert small_store.to_array()[-1].tolist() == [3, 10, 100]
        assert (arr == -1).all()

    def test_id_outside_int64_is_refused_whole(self, small_store):
        with pytest.raises(OverflowError):
            small_store.add(2, 10, 2**63)
        assert len(small_store) == 3
        assert (2, 10, 2**63) not in small_store
        assert small_store.to_array().shape == (3, 3)

    def test_rejected_duplicate_leaves_the_column(self, small_store):
        before = small_store.to_array()
        assert not small_store.add(1, 10, 100)
        assert not small_store.add_all([(0, 11, 101), (0, 10, 100)])
        after = small_store.to_array()
        assert after.shape == (3, 3)
        assert after.tobytes() == before.tobytes()

    def test_relation_counts(self, small_store):
        assert small_store.relation_counts() == {10: 2, 11: 1}

    def test_filter_relations_drops_rare(self, small_store):
        filtered = small_store.filter_relations(min_count=2)
        assert filtered.relations() == {10}
        assert len(filtered) == 2

    def test_iteration_yields_triples(self, small_store):
        triples = list(small_store)
        assert all(isinstance(t, Triple) for t in triples)
        assert triples[0] == Triple(0, 10, 100)

    def test_constructor_from_iterable(self):
        store = TripleStore([(1, 2, 3), (1, 2, 3), (4, 5, 6)])
        assert len(store) == 2
