"""Tests for title generation and the three task dataset builders."""

from collections import Counter

import numpy as np
import pytest

from repro.data import (
    CatalogConfig,
    InteractionConfig,
    MARKETING_WORDS,
    TitleConfig,
    TitleGenerator,
    build_alignment_dataset,
    build_classification_dataset,
    generate_catalog,
    generate_interactions,
    title_vocabulary,
)


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(
        CatalogConfig(
            num_categories=5,
            products_per_category=15,
            min_items_per_product=2,
            max_items_per_product=4,
            seed=3,
        )
    )


@pytest.fixture(scope="module")
def titles(catalog):
    return TitleGenerator(catalog, seed=5)


class TestTitleGenerator:
    def test_title_contains_category_noun(self, catalog):
        gen = TitleGenerator(
            catalog, TitleConfig(attribute_drop_probability=0.0, noise_word_count_max=0),
            seed=1,
        )
        nouns = {c.category_id: c.title_noun for c in catalog.schema}
        for item in catalog.items[:30]:
            assert nouns[item.category_id] in gen.title_of(item)

    def test_no_drop_no_noise_title_is_attrs_plus_noun(self, catalog):
        gen = TitleGenerator(
            catalog,
            TitleConfig(attribute_drop_probability=0.0, noise_word_count_max=0, shuffle=False),
            seed=1,
        )
        item = catalog.items[0]
        title = gen.title_of(item)
        assert len(title) == 1 + len(item.attributes)
        for value in item.attributes.values():
            assert value in title

    def test_drop_probability_removes_words(self, catalog):
        keep = TitleGenerator(
            catalog, TitleConfig(attribute_drop_probability=0.0, noise_word_count_max=0),
            seed=2,
        )
        drop = TitleGenerator(
            catalog, TitleConfig(attribute_drop_probability=0.8, noise_word_count_max=0),
            seed=2,
        )
        total_keep = sum(len(keep.title_of(i)) for i in catalog.items)
        total_drop = sum(len(drop.title_of(i)) for i in catalog.items)
        assert total_drop < total_keep

    def test_noise_words_come_from_marketing_pool(self, catalog):
        gen = TitleGenerator(
            catalog, TitleConfig(attribute_drop_probability=0.99, noise_word_count_max=4),
            seed=3,
        )
        nouns = {c.title_noun for c in catalog.schema}
        values = {
            v for c in catalog.schema for a in c.attributes for v in a.values
        }
        for item in catalog.items[:20]:
            for word in gen.title_of(item):
                assert word in MARKETING_WORDS or word in nouns or word in values

    def test_same_item_distinct_titles(self, catalog, titles):
        item = catalog.items[0]
        generated = [tuple(titles.title_of(item)) for _ in range(10)]
        assert len(set(generated)) > 1

    def test_vocabulary_closed(self, catalog, titles):
        vocab = set(title_vocabulary(catalog))
        for item in catalog.items:
            assert set(titles.title_of(item)) <= vocab

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TitleConfig(attribute_drop_probability=1.0)
        with pytest.raises(ValueError):
            TitleConfig(noise_word_count_max=-1)


class TestClassificationDataset:
    def test_split_sizes_sum(self, catalog, titles):
        ds = build_classification_dataset(catalog, titles, max_per_category=20, seed=0)
        total = sum(ds.sizes())
        assert total <= 5 * 20
        assert total == len(ds.train) + len(ds.test) + len(ds.dev)

    def test_per_category_cap(self, catalog, titles):
        ds = build_classification_dataset(catalog, titles, max_per_category=10, seed=0)
        counts = Counter(e.label for e in ds.train + ds.test + ds.dev)
        assert max(counts.values()) <= 10

    def test_every_category_in_train(self, catalog, titles):
        ds = build_classification_dataset(catalog, titles, max_per_category=20, seed=0)
        assert {e.label for e in ds.train} == set(range(5))

    def test_labels_match_item_category(self, catalog, titles):
        ds = build_classification_dataset(catalog, titles, max_per_category=20, seed=0)
        items = {item.item_id: item for item in catalog.items}
        for example in ds.train[:50]:
            assert items[example.item_id].category_id == example.label

    def test_table_row_format(self, catalog, titles):
        ds = build_classification_dataset(catalog, titles, seed=0)
        row = ds.as_table_row("d")
        assert row.startswith("d | 5 | ")

    def test_validation(self, catalog, titles):
        with pytest.raises(ValueError):
            build_classification_dataset(catalog, titles, max_per_category=0)
        with pytest.raises(ValueError):
            build_classification_dataset(
                catalog, titles, test_fraction=0.6, dev_fraction=0.5
            )


class TestAlignmentDataset:
    def test_positive_pairs_share_product(self, catalog, titles):
        ds = build_alignment_dataset(catalog, titles, category_id=0, ranking_candidates=9, seed=0)
        items = {item.item_id: item for item in catalog.items}
        for pair in ds.train:
            if pair.label == 1:
                assert items[pair.item_a].product_id == items[pair.item_b].product_id
            else:
                assert items[pair.item_a].product_id != items[pair.item_b].product_id

    def test_pairs_within_category(self, catalog, titles):
        ds = build_alignment_dataset(catalog, titles, category_id=2, ranking_candidates=9, seed=0)
        items = {item.item_id: item for item in catalog.items}
        for pair in ds.train:
            assert items[pair.item_a].category_id == 2
            assert items[pair.item_b].category_id == 2

    def test_negative_ratio(self, catalog, titles):
        ds = build_alignment_dataset(
            catalog, titles, category_id=0, negatives_per_positive=2,
            ranking_candidates=9, seed=0,
        )
        labels = Counter(p.label for p in ds.train)
        assert labels[0] == 2 * labels[1]

    def test_ranking_case_structure(self, catalog, titles):
        ds = build_alignment_dataset(catalog, titles, category_id=0, ranking_candidates=9, seed=0)
        for case in ds.test_r:
            assert case.positive.label == 1
            assert len(case.candidates) == 9
            assert all(c.label == 0 for c in case.candidates)
            # Every candidate shares the anchor item.
            assert all(c.item_a == case.positive.item_a for c in case.candidates)

    def test_titles_differ_between_sides(self, catalog, titles):
        ds = build_alignment_dataset(catalog, titles, category_id=0, ranking_candidates=9, seed=0)
        differing = sum(1 for p in ds.train if p.title_a != p.title_b)
        assert differing > len(ds.train) * 0.8

    def test_split_proportions(self, catalog, titles):
        ds = build_alignment_dataset(
            catalog, titles, category_id=0, ranking_candidates=9,
            train_fraction=0.7, test_fraction=0.15, seed=0,
        )
        n_pos_total = len(ds.test_r) + len(ds.dev_r) + sum(
            1 for p in ds.train if p.label == 1
        )
        assert sum(1 for p in ds.train if p.label == 1) >= 0.6 * n_pos_total

    def test_empty_category_raises(self, catalog, titles):
        with pytest.raises(ValueError):
            build_alignment_dataset(catalog, titles, category_id=999)

    def test_train_augmentation_multiplies_training_pairs(self, catalog, titles):
        plain = build_alignment_dataset(
            catalog, titles, category_id=0, ranking_candidates=9, seed=0
        )
        augmented = build_alignment_dataset(
            catalog, titles, category_id=0, ranking_candidates=9,
            train_samples_per_pair=3, seed=0,
        )
        assert len(augmented.train) == 3 * len(plain.train)
        # Test/dev splits are never augmented.
        assert len(augmented.test_c) == len(plain.test_c)
        assert len(augmented.test_r) == len(plain.test_r)

    def test_augmented_positives_get_fresh_titles(self, catalog, titles):
        ds = build_alignment_dataset(
            catalog, titles, category_id=0, ranking_candidates=9,
            train_samples_per_pair=4, seed=0,
        )
        by_item_pair = {}
        for pair in ds.train:
            if pair.label == 1:
                by_item_pair.setdefault((pair.item_a, pair.item_b), []).append(
                    (pair.title_a, pair.title_b)
                )
        repeated = [titles for titles in by_item_pair.values() if len(titles) > 1]
        assert repeated, "augmentation should repeat positive item pairs"
        assert any(len(set(t)) > 1 for t in repeated)

    def test_augmentation_validated(self, catalog, titles):
        with pytest.raises(ValueError):
            build_alignment_dataset(
                catalog, titles, category_id=0, train_samples_per_pair=0
            )

    def test_validation(self, catalog, titles):
        with pytest.raises(ValueError):
            build_alignment_dataset(catalog, titles, 0, train_fraction=0.0)
        with pytest.raises(ValueError):
            build_alignment_dataset(
                catalog, titles, 0, train_fraction=0.9, test_fraction=0.2
            )


class TestInteractions:
    def test_every_user_meets_minimum(self, catalog):
        ds = generate_interactions(catalog, InteractionConfig(num_users=30, seed=0))
        per_user = Counter(i.user_id for i in ds.interactions)
        assert len(per_user) == 30
        assert min(per_user.values()) >= 10

    def test_no_duplicate_user_item_pairs(self, catalog):
        ds = generate_interactions(catalog, InteractionConfig(num_users=30, seed=0))
        pairs = [(i.user_id, i.item_id) for i in ds.interactions]
        assert len(pairs) == len(set(pairs))

    def test_leave_one_out_holds_latest(self, catalog):
        ds = generate_interactions(catalog, InteractionConfig(num_users=20, seed=1))
        train, held = ds.leave_one_out()
        assert len(held) == 20
        by_user = ds.by_user()
        for user_id, holdout in held.items():
            assert holdout.timestamp == max(i.timestamp for i in by_user[user_id])
        assert len(train) + len(held) == len(ds.interactions)

    def test_preference_drives_interactions(self, catalog):
        """Users interact with their preferred categories far above chance."""
        config = InteractionConfig(num_users=40, preference_strength=8.0, seed=2)
        ds = generate_interactions(catalog, config)
        items = {item.item_id: item for item in catalog.items}
        in_preferred = 0
        for interaction in ds.interactions:
            persona = ds.user_personas[interaction.user_id]
            if items[interaction.item_id].category_id in persona["categories"]:
                in_preferred += 1
        share = in_preferred / len(ds.interactions)
        # 2 preferred categories of 5 -> chance is 0.4; preference should lift it.
        assert share > 0.55

    def test_deterministic(self, catalog):
        a = generate_interactions(catalog, InteractionConfig(num_users=10, seed=3))
        b = generate_interactions(catalog, InteractionConfig(num_users=10, seed=3))
        assert a.interactions == b.interactions

    def test_table_row(self, catalog):
        ds = generate_interactions(catalog, InteractionConfig(num_users=10, seed=0))
        row = ds.as_table_row("X")
        assert row.startswith(f"X | {len(catalog.items)} | 10 | ")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InteractionConfig(num_users=0)
        with pytest.raises(ValueError):
            InteractionConfig(min_interactions_per_user=5, max_interactions_per_user=3)
        with pytest.raises(ValueError):
            InteractionConfig(preference_strength=-1)

    def test_small_catalog_raises(self):
        tiny = generate_catalog(
            CatalogConfig(num_categories=1, products_per_category=2, seed=0)
        )
        with pytest.raises(ValueError):
            generate_interactions(tiny, InteractionConfig(num_users=5))
