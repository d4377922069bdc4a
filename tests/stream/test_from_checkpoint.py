"""Regression tests: seeding the stream pipeline from a trained
PKGMServer snapshot (``repro stream run --from-checkpoint``)."""

import dataclasses

import numpy as np
import pytest

from repro.core import KeyRelationSelector, PKGM, PKGMServer
from repro.store import StoreManifestError
from repro.stream import StreamPipeline, StreamRunConfig


@pytest.fixture(scope="module")
def trained_server(experiment, catalog):
    """A server whose tables are recognizably non-default.

    The pipeline's untrained path seeds its own PKGM from
    ``experiment.seed``; overwriting the tables with distinctive values
    makes 'served the checkpoint' distinguishable from 'fresh init'.
    """
    item_to_category = {
        item.entity_id: item.category_id for item in catalog.items
    }
    selector = KeyRelationSelector(
        catalog.store, item_to_category, k=experiment.key_relations
    )
    model = PKGM(
        len(catalog.entities),
        len(catalog.relations),
        experiment.pkgm,
        rng=np.random.default_rng(experiment.seed),
    )
    server = PKGMServer(model, selector)
    rng = np.random.default_rng(99)
    server._entity_table[:] = rng.normal(size=server._entity_table.shape)
    server._relation_table[:] = rng.normal(size=server._relation_table.shape)
    return server


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, trained_server):
    path = tmp_path_factory.mktemp("ckpt") / "server"
    trained_server.save_store(path).close()
    return path


class TestFromCheckpoint:
    def test_tables_seeded_from_snapshot(
        self, experiment, checkpoint, trained_server, tmp_path
    ):
        pipeline = StreamPipeline(
            experiment,
            tmp_path / "run",
            StreamRunConfig(batches=2, publish_every=2),
            from_checkpoint=checkpoint,
        )
        assert pipeline.dim == trained_server.dim
        assert np.array_equal(
            pipeline.trainer.entity_table, trained_server.entity_table
        )
        assert np.array_equal(
            pipeline.relation_table, trained_server.relation_table
        )
        assert np.array_equal(pipeline.transfer, trained_server.transfer_tensor)

    def test_untrained_path_differs(self, experiment, checkpoint, tmp_path):
        seeded = StreamPipeline(
            experiment,
            tmp_path / "a",
            StreamRunConfig(batches=2),
            from_checkpoint=checkpoint,
        )
        fresh = StreamPipeline(
            experiment, tmp_path / "b", StreamRunConfig(batches=2)
        )
        assert not np.array_equal(
            seeded.trainer.entity_table, fresh.trainer.entity_table
        )

    def test_published_snapshot_serves_trained_embeddings(
        self, experiment, checkpoint, trained_server, tmp_path
    ):
        """The satellite's acceptance: a snapshot published by a
        checkpoint-seeded pipeline serves the trained vectors."""
        pipeline = StreamPipeline(
            experiment,
            tmp_path / "run",
            StreamRunConfig(batches=2, publish_every=2),
            from_checkpoint=checkpoint,
        )
        pipeline.publish()
        version = pipeline.versioner.current_version()
        assert version is not None
        served = pipeline.versioner.load_server(version)
        for item in sorted(served.known_items())[:5]:
            reference = trained_server.serve(int(item))
            snapshot = served.serve(int(item))
            assert np.array_equal(
                reference.triple_vectors, snapshot.triple_vectors
            )
            assert np.array_equal(
                reference.relation_vectors, snapshot.relation_vectors
            )

    def test_shape_mismatch_rejected(
        self, experiment, catalog, checkpoint, tmp_path
    ):
        wrong_k = dataclasses.replace(
            experiment, key_relations=experiment.key_relations + 1
        )
        with pytest.raises(ValueError, match="key relations"):
            StreamPipeline(
                wrong_k,
                tmp_path / "run",
                StreamRunConfig(batches=2),
                from_checkpoint=checkpoint,
            )

    def test_entity_count_mismatch_rejected(self, experiment, tmp_path):
        from repro.data import generate_catalog

        small_config = dataclasses.replace(
            experiment,
            catalog=dataclasses.replace(
                experiment.catalog, products_per_category=6
            ),
        )
        small_catalog = generate_catalog(small_config.catalog)
        item_to_category = {
            item.entity_id: item.category_id for item in small_catalog.items
        }
        selector = KeyRelationSelector(
            small_catalog.store, item_to_category, k=experiment.key_relations
        )
        model = PKGM(
            len(small_catalog.entities),
            len(small_catalog.relations),
            experiment.pkgm,
            rng=np.random.default_rng(0),
        )
        path = tmp_path / "small"
        PKGMServer(model, selector).save_store(path).close()
        with pytest.raises(ValueError, match="entities"):
            StreamPipeline(
                experiment,
                tmp_path / "run",
                StreamRunConfig(batches=2),
                from_checkpoint=path,
            )

    def test_old_npz_checkpoint_is_refused(self, experiment, tmp_path):
        """A pre-store ``server.npz`` names the store format in its
        refusal instead of being read (ROADMAP [9](d))."""
        path = tmp_path / "server.npz"
        np.savez_compressed(path, entity_table=np.zeros((3, 2)))
        with pytest.raises(StoreManifestError, match="a store is a directory"):
            StreamPipeline(
                experiment,
                tmp_path / "run",
                StreamRunConfig(batches=2),
                from_checkpoint=path,
            )
