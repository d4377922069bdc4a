"""Versioned snapshot publication, verification, and gateway swap."""

import numpy as np
import pytest

from repro.index import IndexSnapshotError, IVFFlatIndex
from repro.reliability import PKGMGateway
from repro.stream import (
    SnapshotSwapError,
    SnapshotVersioner,
    swap_gateway,
)


@pytest.fixture()
def tables(rng):
    entity_table = np.random.default_rng(0).standard_normal((30, 4))
    relation_table = np.random.default_rng(1).standard_normal((3, 4))
    transfer = np.random.default_rng(2).standard_normal((3, 4, 4))
    item_ids = np.arange(10, dtype=np.int64)
    key_relations = np.tile(np.arange(2, dtype=np.int64), (10, 1))
    return {
        "entity_table": entity_table,
        "relation_table": relation_table,
        "transfer": transfer,
        "item_ids": item_ids,
        "key_relations": key_relations,
    }


@pytest.fixture()
def index(tables):
    built = IVFFlatIndex(dim=4, nlist=2, nprobe=2, seed=0)
    built.build(
        tables["entity_table"][:10], np.arange(10, dtype=np.int64)
    )
    return built


def publish(versioner, tables, index, version=0, seq=41):
    return versioner.publish(version, tables, index, seq=seq)


class TestPublish:
    def test_publish_promotes_current(self, tmp_path, tables, index):
        versioner = SnapshotVersioner(tmp_path)
        assert versioner.current_version() is None
        publish(versioner, tables, index)
        assert versioner.current_version() == 0
        assert versioner.verify(0)["seq"] == 41

    def test_republish_is_byte_identical(self, tmp_path, tables, index):
        paths = []
        for run in ("a", "b"):
            versioner = SnapshotVersioner(tmp_path / run)
            paths.append(publish(versioner, tables, index))
        files = sorted(p.relative_to(paths[0]) for p in paths[0].rglob("*") if p.is_file())
        assert files
        for name in files:
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()

    def test_verify_catches_store_tampering(self, tmp_path, tables, index):
        versioner = SnapshotVersioner(tmp_path)
        directory = publish(versioner, tables, index)
        manifest = directory / "store" / "manifest.json"
        manifest.write_bytes(manifest.read_bytes() + b" ")
        with pytest.raises(SnapshotSwapError, match="store manifest"):
            versioner.verify(0)

    def test_verify_catches_index_tampering(self, tmp_path, tables, index):
        versioner = SnapshotVersioner(tmp_path)
        directory = publish(versioner, tables, index)
        # The version pins the index by its store-manifest SHA, and that
        # manifest pins every page: a flipped shard byte is refused at
        # load, a touched manifest already at verify.
        shard = directory / "index" / "vectors-0000.bin"
        blob = bytearray(shard.read_bytes())
        blob[10] ^= 0xFF
        shard.write_bytes(bytes(blob))
        with pytest.raises(IndexSnapshotError, match="failed its CRC"):
            versioner.load_index(0)
        manifest = directory / "index" / "manifest.json"
        manifest.write_bytes(manifest.read_bytes() + b" ")
        with pytest.raises(SnapshotSwapError, match="index manifest"):
            versioner.verify(0)

    def test_missing_version_raises(self, tmp_path):
        versioner = SnapshotVersioner(tmp_path)
        with pytest.raises(SnapshotSwapError, match="no sealed manifest"):
            versioner.verify(7)


class TestLoadAndSwap:
    def test_load_server_serves_published_items(self, tmp_path, tables, index):
        versioner = SnapshotVersioner(tmp_path)
        publish(versioner, tables, index)
        server = versioner.load_server(0)
        assert sorted(server.known_items()) == list(range(10))
        vectors = server.serve(3)
        assert vectors.triple_vectors.shape == (2, 4)

    def test_load_index_roundtrip(self, tmp_path, tables, index):
        versioner = SnapshotVersioner(tmp_path)
        publish(versioner, tables, index)
        loaded = versioner.load_index(0)
        query = tables["entity_table"][:1]
        d0, i0 = index.search(query, 3)
        d1, i1 = loaded.search(query, 3)
        assert np.array_equal(i0, i1)
        assert np.allclose(d0, d1)

    def test_swap_gateway_promotes_new_version(self, tmp_path, tables, index):
        versioner = SnapshotVersioner(tmp_path)
        publish(versioner, tables, index, version=0)
        old_server = versioner.load_server(0)
        gateway = PKGMGateway([old_server] * 2, seed=0)
        bumped = dict(tables)
        bumped["entity_table"] = tables["entity_table"] + 1.0
        publish(versioner, bumped, index, version=1, seq=99)
        server = swap_gateway(gateway, versioner, 1)
        assert gateway.state == "serving"
        assert versioner.current_version() == 1
        # The swapped-in server really serves the bumped table.
        assert not np.allclose(
            server.serve(3).triple_vectors, old_server.serve(3).triple_vectors
        )
