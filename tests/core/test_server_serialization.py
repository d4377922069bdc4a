"""Tests for the deployable server snapshot (save_store/from_store).

Bit-identity under a tight page cache, degraded reads and repair live
in ``tests/store/test_integration.py``; this file keeps the snapshot
contract itself — what a round trip preserves and what a reader
refuses — on the smoke catalog's server.
"""

import numpy as np
import pytest

from repro.core import PKGMServer, SnapshotError
from repro.store import EmbeddingStore, StoreManifestError


@pytest.fixture()
def restored(server, tmp_path):
    server.save_store(tmp_path / "server").close()
    restored = PKGMServer.from_store(tmp_path / "server")
    yield restored
    restored.store.close()


class TestServerSaveLoad:
    def test_roundtrip_serves_identically(self, server, catalog, restored):
        for item in catalog.items[:10]:
            original = server.serve(item.entity_id)
            loaded = restored.serve(item.entity_id)
            assert np.array_equal(original.triple_vectors, loaded.triple_vectors)
            assert np.array_equal(
                original.relation_vectors, loaded.relation_vectors
            )
            assert np.array_equal(original.key_relations, loaded.key_relations)

    def test_roundtrip_metadata(self, server, restored):
        assert restored.k == server.k
        assert restored.dim == server.dim
        assert restored.num_entities == server.num_entities
        assert restored.num_relations == server.num_relations

    def test_batch_apis_work_after_load(self, server, catalog, restored):
        ids = [item.entity_id for item in catalog.items[:5]]
        assert np.array_equal(
            server.serve_sequence_batch(ids), restored.serve_sequence_batch(ids)
        )
        assert np.array_equal(
            server.serve_condensed_batch(ids), restored.serve_condensed_batch(ids)
        )

    def test_unknown_item_raises_after_load(self, restored):
        with pytest.raises(KeyError):
            restored.serve(10**9)

    def test_save_load_save_roundtrip(self, server, catalog, restored, tmp_path):
        """A loaded server must itself be saveable (frozen selectors
        expose the same public surface as live ones) — and re-saving
        what was loaded writes the very same bytes."""
        restored.save_store(tmp_path / "second").close()
        twice = PKGMServer.from_store(tmp_path / "second")
        for item in catalog.items[:5]:
            assert np.array_equal(
                server.serve(item.entity_id).sequence(),
                twice.serve(item.entity_id).sequence(),
            )
        assert twice.known_items() == server.known_items()
        twice.store.close()
        for path in sorted((tmp_path / "server").iterdir()):
            assert path.read_bytes() == (
                tmp_path / "second" / path.name
            ).read_bytes(), path.name

    def test_known_items_preserved_across_roundtrip(self, server, restored):
        assert restored.known_items() == server.known_items()

    def test_snapshot_is_self_contained(self, server, catalog, restored):
        """Loading must not need the model, selector, or triple store."""
        entity = catalog.items[0].entity_id
        before = restored.serve(entity).sequence()
        # Mutating the original server's arrays must not affect the copy.
        server._entity_table += 10.0
        after = restored.serve(entity).sequence()
        server._entity_table -= 10.0
        assert np.array_equal(before, after)


class TestRefusal:
    def tables(self, **overrides):
        tables = {
            "entity_table": np.zeros((4, 2)),
            "relation_table": np.zeros((3, 2)),
            "transfer": np.zeros((3, 2, 2)),
            "item_ids": np.arange(2, dtype=np.int64),
            "key_relations": np.zeros((2, 1), dtype=np.int64),
        }
        tables.update(overrides)
        return tables

    def build(self, directory, tables, k=1):
        EmbeddingStore.build(
            directory, tables, metadata={"kind": "pkgm-server", "k": k, "dim": 2}
        ).close()
        return directory

    def test_well_formed_store_loads(self, tmp_path):
        """The fixture itself is valid, so each refusal below is caused
        by its one override."""
        server = PKGMServer.from_store(self.build(tmp_path / "ok", self.tables()))
        assert server.known_items() == [0, 1]
        server.store.close()

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"entity_table": np.zeros((4, 2, 1))}, "must be 1-D"),
            ({"relation_table": np.zeros((3, 5))}, "does not match entity dim"),
            ({"transfer": np.zeros((3, 2, 3))}, "'transfer' geometry"),
            ({"transfer": np.zeros((4, 2, 2))}, "'transfer' geometry"),
            (
                {"key_relations": np.zeros((3, 1), dtype=np.int64)},
                "'key_relations' geometry",
            ),
            (
                {"key_relations": np.zeros((2, 2), dtype=np.int64)},
                "'key_relations' geometry",
            ),
            (
                {"key_relations": np.array([[0], [3]], dtype=np.int64)},
                r"relation ids outside \[0, 3\)",
            ),
            (
                {"key_relations": np.array([[-1], [0]], dtype=np.int64)},
                r"relation ids outside \[0, 3\)",
            ),
        ],
    )
    def test_inconsistent_tables_are_refused(self, tmp_path, overrides, match):
        directory = self.build(tmp_path / "bad", self.tables(**overrides))
        with pytest.raises(SnapshotError, match=match):
            PKGMServer.from_store(directory)

    def test_old_npz_snapshot_is_refused_naming_the_store_format(self, tmp_path):
        """A pre-store ``server.npz`` is refused, not read (ROADMAP [9](d))."""
        path = tmp_path / "server.npz"
        np.savez_compressed(path, **self.tables(), k=np.asarray([1]))
        for not_a_store in (path, tmp_path):
            with pytest.raises(StoreManifestError, match="a store is a directory"):
                PKGMServer.from_store(not_a_store)
