"""Integration tests: pre-training dynamics and service semantics.

These validate the paper's central claims at small scale:

* training reduces the margin loss (convergence);
* ``S_T(h, r)`` lands near the true tail embedding (Table I servicing);
* ``S_R`` norms order as has < should-have < should-not-have (§II-D's
  three cases, including completion);
* the server is data-independent and matches module outputs.
"""

import numpy as np
import pytest

from repro.core import (
    KeyRelationSelector,
    PKGM,
    PKGMConfig,
    PKGMTrainer,
    TrainerConfig,
    pretrain_pkgm,
)
from repro.kg import TripleStore, holdout_incompleteness
from repro.nn import no_grad


class TestTraining:
    def test_loss_decreases(self, trained_pkgm):
        _, history = trained_pkgm
        assert history.improved()
        assert history.final_loss < history.epoch_losses[0] * 0.5

    def test_entity_norms_constrained(self, trained_pkgm):
        model, _ = trained_pkgm
        norms = np.linalg.norm(
            model.triple_module.entity_embeddings.weight.data, axis=1
        )
        assert np.all(norms <= 1.0 + 1e-6)

    def test_deterministic_given_seed(self, catalog):
        kwargs = dict(
            num_entities=len(catalog.entities),
            num_relations=len(catalog.relations),
            model_config=PKGMConfig(dim=8),
            trainer_config=TrainerConfig(epochs=2, batch_size=128, seed=3),
            seed=3,
        )
        a = pretrain_pkgm(catalog.store, **kwargs)
        b = pretrain_pkgm(catalog.store, **kwargs)
        assert np.array_equal(
            a.triple_module.entity_embeddings.weight.data,
            b.triple_module.entity_embeddings.weight.data,
        )
        assert np.array_equal(
            a.relation_module.transfer_matrices.data,
            b.relation_module.transfer_matrices.data,
        )

    def test_trainer_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainerConfig(negatives_per_edge=0)

    def test_every_entity_row_is_inside_the_ball_after_every_step(self):
        """Only the rows a step wrote are projected; the rest were put
        inside the ball at the first step and stay there."""
        max_norm, num_entities = 0.5, 200
        rng = np.random.default_rng(3)
        store = TripleStore(map(tuple, rng.integers(0, [20, 3, 20], size=(40, 3))))
        model = PKGM(num_entities, 3, PKGMConfig(dim=8), rng=np.random.default_rng(1))
        table = model.triple_module.entity_embeddings.weight.data
        assert (np.linalg.norm(table, axis=1) > max_norm).all()
        trainer = PKGMTrainer(
            model, TrainerConfig(epochs=3, batch_size=8, entity_max_norm=max_norm)
        )
        update, written, steps = trainer._update, set(), []

        def checked(grads):
            update(grads)
            written.update(grads.entity_rows.tolist())
            norms = np.linalg.norm(table, axis=1)
            assert (norms <= max_norm * (1 + 1e-12)).all()
            steps.append(len(grads.entity_rows))

        trainer._update = checked
        trainer.train(store)
        assert len(steps) == 15
        assert len(written) < num_entities // 2

    @pytest.mark.parametrize("max_norm", [-1.0, 0.0, float("nan")])
    def test_non_positive_entity_max_norm_is_refused(self, max_norm):
        """Once accepted, -1.0 flipped the sign of every entity coordinate
        and 0.0 zeroed every row."""
        with pytest.raises(ValueError, match="entity_max_norm"):
            TrainerConfig(epochs=1, entity_max_norm=max_norm)
        TrainerConfig(epochs=1, entity_max_norm=None)  # no constraint

    def test_progress_callback_invoked(self, catalog):
        model = PKGM(
            len(catalog.entities), len(catalog.relations), PKGMConfig(dim=8)
        )
        seen = []
        PKGMTrainer(model, TrainerConfig(epochs=3, batch_size=256)).train(
            catalog.store, progress=lambda e, l: seen.append((e, l))
        )
        assert [e for e, _ in seen] == [0, 1, 2]

    def test_optimizer_holds_distinct_parameters(self):
        """One row-sparse Adam per table: the entity, relation and
        transfer arrays the model holds, each once."""
        model = PKGM(10, 3, PKGMConfig(dim=4), rng=np.random.default_rng(0))
        optimizer = PKGMTrainer(model, TrainerConfig(epochs=1)).optimizer
        tables = [adam.table for adam in optimizer.values()]
        assert len({id(table) for table in tables}) == 3
        assert [id(table) for table in tables] == [
            id(param.data) for param in model.parameters()
        ]


class TestServiceSemantics:
    def test_triple_service_close_to_true_tail(self, catalog, trained_pkgm):
        """S_T(h, r) lies closer to the true tail than to random entities."""
        model, _ = trained_pkgm
        arr = catalog.store.to_array()
        service = model.service_triple(arr[:, 0], arr[:, 1])
        tails = model.triple_module.entity_embeddings.weight.data[arr[:, 2]]
        true_dist = np.abs(service - tails).sum(axis=1).mean()
        rng = np.random.default_rng(9)
        random_ids = rng.integers(0, model.num_entities, len(arr))
        random_tails = model.triple_module.entity_embeddings.weight.data[random_ids]
        random_dist = np.abs(service - random_tails).sum(axis=1).mean()
        assert true_dist < random_dist * 0.85

    def test_tail_decoding_hits(self, catalog, trained_pkgm):
        """Nearest-entity decoding of S_T recovers the true tail often."""
        model, _ = trained_pkgm
        arr = catalog.store.to_array()[:300]
        service = model.service_triple(arr[:, 0], arr[:, 1])
        top = model.nearest_entities(service, k=5)
        hits = np.mean([arr[i, 2] in top[i] for i in range(len(arr))])
        assert hits > 0.5

    def test_relation_norm_three_cases(self, catalog, trained_pkgm):
        """§II-D: norm(has) < norm(should-have) < norm(should-not-have)."""
        model, _ = trained_pkgm
        schema_rels = {
            c.category_id: {
                catalog.relations.id_of(a.relation) for a in c.attributes
            }
            for c in catalog.schema
        }
        has, should, should_not = [], [], []
        for item in catalog.items:
            have = catalog.store.relations_of(item.entity_id)
            applicable = schema_rels[item.category_id]
            for r in range(len(catalog.relations)):
                pair = (item.entity_id, r)
                if r in have:
                    has.append(pair)
                elif r in applicable:
                    should.append(pair)
                else:
                    should_not.append(pair)

        def mean_norm(pairs):
            pairs = np.asarray(pairs)
            out = model.service_relation(pairs[:, 0], pairs[:, 1])
            return np.abs(out).sum(axis=1).mean()

        n_has, n_should, n_not = (
            mean_norm(has),
            mean_norm(should),
            mean_norm(should_not),
        )
        assert n_has < n_should < n_not

    def test_completion_on_heldout_triples(self, catalog):
        """Held-out true triples still decode well through S_T (completion)."""
        observed, missing = holdout_incompleteness(
            catalog.store, 0.15, np.random.default_rng(4)
        )
        model = pretrain_pkgm(
            observed,
            len(catalog.entities),
            len(catalog.relations),
            model_config=PKGMConfig(dim=16),
            trainer_config=TrainerConfig(
                epochs=25, batch_size=128, learning_rate=0.02, seed=0
            ),
            seed=0,
        )
        held = missing.to_array()
        service = model.service_triple(held[:, 0], held[:, 1])
        top = model.nearest_entities(service, k=10)
        hits = np.mean([held[i, 2] in top[i] for i in range(len(held))])
        # Never-seen triples should still rank the true tail in top-10
        # far above chance (chance ~ 10/N_entities ~ 0.035).
        assert hits > 0.3


class TestKeyRelationSelector:
    def test_k_relations_per_category(self, catalog, selector):
        for category in selector.categories():
            assert len(selector.for_category(category)) == selector.k

    def test_most_frequent_relation_first(self, catalog):
        item_to_category = {
            item.entity_id: item.category_id for item in catalog.items
        }
        selector = KeyRelationSelector(catalog.store, item_to_category, k=3)
        # brandIs (fill 0.95) and modelIs (fill 0.85) dominate all other
        # attributes (fill <= 0.9 with much smaller per-category counts).
        top = {catalog.relations.id_of("brandIs"), catalog.relations.id_of("modelIs")}
        for category in selector.categories():
            assert selector.for_category(category)[0] in top

    def test_for_item_matches_category(self, catalog, selector):
        item = catalog.items[0]
        assert selector.for_item(item.entity_id) == selector.for_category(
            item.category_id
        )

    def test_for_items_batch_shape(self, catalog, selector):
        ids = [item.entity_id for item in catalog.items[:7]]
        batch = selector.for_items(ids)
        assert batch.shape == (7, selector.k)

    def test_frozen_for_items_is_each_items_category(self, catalog, selector):
        items = catalog.items[:7]
        ids = np.asarray([item.entity_id for item in items], dtype=np.int64)
        batch = selector.freeze().for_items(ids)
        assert batch.dtype == np.int64
        assert batch.tolist() == [selector.for_category(item.category_id) for item in items]

    def test_unknown_item_raises(self, selector):
        with pytest.raises(KeyError):
            selector.for_item(10**9)

    def test_unknown_category_raises(self, selector):
        with pytest.raises(KeyError):
            selector.for_category(10**9)

    def test_padding_cycles_for_sparse_categories(self):
        """Categories with fewer than k relations are padded by cycling."""
        from repro.kg import TripleStore

        store = TripleStore([(0, 7, 100), (0, 7, 101), (0, 8, 100)])
        selector = KeyRelationSelector(store, {0: 0}, k=5)
        key = selector.for_category(0)
        assert len(key) == 5
        assert key[:2] == [7, 8]
        assert set(key) == {7, 8}

    def test_rejects_bad_k(self, catalog):
        with pytest.raises(ValueError):
            KeyRelationSelector(catalog.store, {}, k=0)


class TestPKGMServer:
    def test_serve_shapes(self, server, catalog):
        vectors = server.serve(catalog.items[0].entity_id)
        assert vectors.triple_vectors.shape == (server.k, server.dim)
        assert vectors.relation_vectors.shape == (server.k, server.dim)
        assert vectors.sequence().shape == (2 * server.k, server.dim)
        assert vectors.condensed().shape == (2 * server.dim,)

    def test_serve_matches_model_modules(self, server, trained_pkgm, selector, catalog):
        model, _ = trained_pkgm
        entity = catalog.items[3].entity_id
        vectors = server.serve(entity)
        relations = np.asarray(selector.for_item(entity))
        heads = np.full(len(relations), entity)
        assert np.allclose(
            vectors.triple_vectors, model.service_triple(heads, relations)
        )
        assert np.allclose(
            vectors.relation_vectors, model.service_relation(heads, relations)
        )

    def test_condensed_matches_equation_8_9(self, server, catalog):
        """S = (1/k) sum_j [S_j ; S_{j+k}]."""
        vectors = server.serve(catalog.items[5].entity_id)
        manual = np.zeros(2 * server.dim)
        for j in range(server.k):
            manual += np.concatenate(
                [vectors.triple_vectors[j], vectors.relation_vectors[j]]
            )
        manual /= server.k
        assert np.allclose(vectors.condensed(), manual)

    def test_sequence_batch_consistent_with_serve(self, server, catalog):
        ids = [item.entity_id for item in catalog.items[:4]]
        batch = server.serve_sequence_batch(ids)
        assert batch.shape == (4, 2 * server.k, server.dim)
        for i, entity in enumerate(ids):
            assert np.allclose(batch[i], server.serve(entity).sequence())

    def test_condensed_batch_consistent_with_serve(self, server, catalog):
        ids = [item.entity_id for item in catalog.items[:4]]
        batch = server.serve_condensed_batch(ids)
        assert batch.shape == (4, 2 * server.dim)
        for i, entity in enumerate(ids):
            assert np.allclose(batch[i], server.serve(entity).condensed())

    def test_server_is_a_snapshot(self, trained_pkgm, selector, catalog):
        """Mutating the model after server construction changes nothing."""
        from repro.core import PKGMServer

        model, _ = trained_pkgm
        server = PKGMServer(model, selector)
        entity = catalog.items[0].entity_id
        before = server.serve(entity).sequence().copy()
        original = model.triple_module.entity_embeddings.weight.data.copy()
        with no_grad():
            model.triple_module.entity_embeddings.weight.data += 100.0
        after = server.serve(entity).sequence()
        with no_grad():
            model.triple_module.entity_embeddings.weight.data = original
        assert np.allclose(before, after)

    def test_relation_existence_score_orders(self, server, catalog):
        """Existing relations score lower than inapplicable ones on average."""
        schema_rels = {
            c.category_id: {
                catalog.relations.id_of(a.relation) for a in c.attributes
            }
            for c in catalog.schema
        }
        existing, inapplicable = [], []
        for item in catalog.items[:60]:
            have = catalog.store.relations_of(item.entity_id)
            applicable = schema_rels[item.category_id]
            for r in range(len(catalog.relations)):
                score = server.relation_existence_score(item.entity_id, r)
                if r in have:
                    existing.append(score)
                elif r not in applicable:
                    inapplicable.append(score)
        assert np.mean(existing) < np.mean(inapplicable)
