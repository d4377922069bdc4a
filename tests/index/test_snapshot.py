"""Snapshot roundtrips, byte-determinism, and corruption refusal."""

import numpy as np
import pytest

from repro.index import (
    FlatIndex,
    IVFFlatIndex,
    IndexSnapshotError,
    load_index,
    save_index,
)
from repro.store import MANIFEST_NAME

K = 5


def build(kind, base):
    dim = base.shape[1]
    if kind == "flat":
        index = FlatIndex(dim, metric="l1")
        index.add(base)
    else:
        index = IVFFlatIndex(dim, nlist=16, nprobe=4, metric="l1")
        index.build(base)
    return index


def directory_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("kind", ["flat", "ivf"])
class TestRoundtrip:
    def test_search_results_survive_reload(
        self, tmp_path, clustered_catalog, kind
    ):
        base, queries = clustered_catalog
        index = build(kind, base)
        directory = save_index(index, tmp_path / "idx")
        assert (directory / MANIFEST_NAME).exists()
        loaded = load_index(tmp_path / "idx")
        assert loaded.kind == kind
        assert loaded.ntotal == index.ntotal
        d0, i0 = index.search(queries, K)
        d1, i1 = loaded.search(queries, K)
        assert np.array_equal(d0, d1)
        assert np.array_equal(i0, i1)

    def test_same_seed_snapshots_are_byte_identical(
        self, tmp_path, clustered_catalog, kind
    ):
        """Two independent same-seed builds must write identical bytes —
        the property tools/check.sh gates on (``diff -r``)."""
        base, _ = clustered_catalog
        for run in ("r1", "r2"):
            save_index(build(kind, base), tmp_path / run / "idx")
        first = directory_bytes(tmp_path / "r1" / "idx")
        assert MANIFEST_NAME in first and len(first) > 1
        assert first == directory_bytes(tmp_path / "r2" / "idx"), kind


class TestRefusal:
    @pytest.fixture()
    def saved(self, tmp_path, clustered_catalog):
        base, _ = clustered_catalog
        return save_index(build("ivf", base), tmp_path / "idx")

    def test_corrupted_payload_is_refused(self, saved):
        payload = saved / "vectors-0000.bin"
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))
        with pytest.raises(IndexSnapshotError, match="failed its CRC"):
            load_index(saved)

    def test_missing_manifest_is_refused(self, saved):
        (saved / MANIFEST_NAME).unlink()
        with pytest.raises(IndexSnapshotError, match="manifest"):
            load_index(saved)

    def test_missing_payload_is_refused(self, saved):
        (saved / "ids-0000.bin").unlink()
        with pytest.raises(IndexSnapshotError, match="'ids' is quarantined"):
            load_index(saved)

    def test_garbled_manifest_is_refused(self, saved):
        (saved / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(IndexSnapshotError, match="unreadable"):
            load_index(saved)

    def test_unknown_kind_is_refused(self, saved):
        """A well-sealed store that is not an index (here: a kind no
        index class claims) is refused before any table is read.
        ``ivfpq`` is what a snapshot of the deleted IVF-PQ index says."""
        import json

        from repro.store import seal_manifest

        manifest_path = saved / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        for kind in ("hnsw", "ivfpq"):
            manifest["metadata"]["kind"] = kind
            manifest_path.write_text(json.dumps(seal_manifest(manifest)))
            with pytest.raises(IndexSnapshotError, match="unknown index kind"):
                load_index(saved)
        # ...and an edit that does not re-seal fails the self-checksum.
        manifest_path.write_text(json.dumps(manifest))  # checksum still says "ivf"
        with pytest.raises(IndexSnapshotError, match="self-checksum"):
            load_index(saved)

    def test_nothing_saved_is_refused(self, tmp_path):
        with pytest.raises(IndexSnapshotError, match="manifest"):
            load_index(tmp_path / "never-written")

    def test_old_npz_pair_is_refused_naming_the_store_format(self, tmp_path):
        """``idx.npz`` + ``idx.json`` from before snapshots were store
        directories: refused by either spelling, never read
        (ROADMAP [9](d))."""
        np.savez_compressed(tmp_path / "idx.npz", ids=np.arange(3))
        (tmp_path / "idx.json").write_text('{"kind": "flat"}')
        for spelling in ("idx", "idx.npz"):
            with pytest.raises(IndexSnapshotError, match="a store is a directory"):
                load_index(tmp_path / spelling)

    def test_truncated_payload_is_refused(self, saved):
        """Torn write: a shard stops mid-file.  The page CRCs must
        refuse it before any index object exists."""
        payload = saved / "vectors-0000.bin"
        blob = payload.read_bytes()
        payload.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexSnapshotError, match="failed its CRC"):
            load_index(saved)

    def test_post_checksum_bit_flip_is_refused(self, saved):
        """Bit rot after save: one flipped bit anywhere in a shard
        (here near the tail of the last page) must fail its page CRC."""
        payload = saved / "vectors-0000.bin"
        blob = bytearray(payload.read_bytes())
        blob[-3] ^= 0x01
        payload.write_bytes(bytes(blob))
        with pytest.raises(IndexSnapshotError, match="failed its CRC"):
            load_index(saved)

    def test_refusal_leaves_no_partial_state(self, saved):
        """A refused load mutates nothing on disk — no temp files, no
        partially written artifacts a retry could trip over."""
        payload = saved / "vectors-0000.bin"
        blob = payload.read_bytes()
        payload.write_bytes(blob[: len(blob) // 2])
        before = directory_bytes(saved)
        with pytest.raises(IndexSnapshotError):
            load_index(saved)
        assert directory_bytes(saved) == before
