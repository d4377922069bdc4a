"""``EmbeddingStore.build`` is the one write path: each shard file is
exactly its rows' bytes, written atomically straight from a byte view
of them, and the manifest lands strictly last."""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.store import (
    EmbeddingStore,
    MANIFEST_NAME,
    QuarantinedRowError,
    ShardInfo,
    StoreSchemaError,
    page_crc32s,
    shard_filename,
)
from repro.store import store as store_module


def make_arrays(rng):
    return {
        "entity": rng.standard_normal((37, 6)).astype(np.float32),
        "relation": rng.standard_normal((5, 6)).astype(np.float64),
        "transfer": rng.standard_normal((5, 2, 3)),
        "ids": np.arange(37, dtype=np.int64),
    }


def directory_bytes(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


@pytest.mark.parametrize("num_shards", [1, 3])
def test_each_shard_file_is_its_rows_bytes(tmp_path, num_shards):
    """Every shard file is its rows' bytes, and its manifest record is
    the SHA-256 and the page CRCs of that file."""
    arrays = make_arrays(np.random.default_rng(7))
    store = EmbeddingStore.build(
        tmp_path, arrays, num_shards=num_shards, page_bytes=256
    )
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_bytes())
    try:
        for name, array in arrays.items():
            spec = store.spec(name)
            page_nbytes = spec.rows_per_page * spec.row_nbytes
            records = manifest["tables"][name]["shards"]
            assert len(records) == num_shards
            for shard, info in enumerate(map(ShardInfo.from_manifest, records)):
                first = spec.global_row(shard, 0)
                rows = slice(first, first + spec.shard_rows(shard))
                on_disk = (tmp_path / shard_filename(name, shard)).read_bytes()
                assert on_disk == array[rows].tobytes(), (name, shard)
                assert info.file == shard_filename(name, shard)
                assert info.nbytes == len(on_disk)
                assert info.sha256 == hashlib.sha256(on_disk).hexdigest()
                assert info.page_crcs == tuple(page_crc32s(on_disk, page_nbytes))
    finally:
        store.close()


def test_any_memory_order_writes_the_same_files(tmp_path):
    """Fortran-order and strided inputs are made contiguous once and
    write the files their C-order copy writes."""
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((40, 12))
    inputs = {
        "c": wide[:, ::2].copy(),
        "fortran": np.asfortranarray(wide[:, ::2]),
        "strided": wide[:, ::2],
    }
    for label, array in inputs.items():
        EmbeddingStore.build(
            tmp_path / label, {"t": array}, num_shards=3, page_bytes=128
        ).close()
    reference = directory_bytes(tmp_path / "c")
    assert directory_bytes(tmp_path / "fortran") == reference
    assert directory_bytes(tmp_path / "strided") == reference


def test_built_store_reads_back_rows(tmp_path):
    array = np.random.default_rng(1).standard_normal((20, 3)).astype(
        np.float32
    )
    store = EmbeddingStore.build(
        tmp_path, {"table": array}, num_shards=2, page_bytes=128
    )
    try:
        assert np.array_equal(store.read_table("table"), array)
        assert np.array_equal(store.read_row("table", 13), array[13])
    finally:
        store.close()


def test_empty_table_builds(tmp_path):
    empty = np.zeros((0, 4), dtype=np.float32)
    store = EmbeddingStore.build(tmp_path, {"empty": empty}, num_shards=2)
    try:
        assert store.read_table("empty").shape == (0, 4)
        assert all(
            (tmp_path / shard_filename("empty", shard)).read_bytes() == b""
            for shard in range(2)
        )
    finally:
        store.close()


def test_zero_d_input_is_refused(tmp_path):
    with pytest.raises(StoreSchemaError, match="at least 1-D"):
        EmbeddingStore.build(tmp_path, {"scalar": np.float64(3.0)})
    assert not (tmp_path / MANIFEST_NAME).exists()


def test_a_failed_write_leaves_no_manifest_and_no_temp_file(
    tmp_path, monkeypatch
):
    """The third shard's rename fails: the shards before it stay, but
    no manifest names them and no temp file is left behind."""
    replace = os.replace
    calls = []

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == 3:
            raise OSError("injected rename failure")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    arrays = make_arrays(np.random.default_rng(5))
    with pytest.raises(OSError, match="injected"):
        EmbeddingStore.build(tmp_path, arrays, num_shards=2, page_bytes=128)
    assert len(calls) == 3
    assert not (tmp_path / MANIFEST_NAME).exists()
    assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]


def test_build_does_not_copy_a_contiguous_table(tmp_path):
    """Each shard is written from a byte view of its rows: building a
    4 MiB C-contiguous table allocates far less than the table."""
    table = np.random.default_rng(0).standard_normal((8192, 64))
    assert table.flags.c_contiguous and table.nbytes == 4 << 20
    tracemalloc.start()
    try:
        store = EmbeddingStore.build(tmp_path, {"entity_table": table})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    try:
        assert np.array_equal(store.read_rows("entity_table", [0, 8191]),
                              table[[0, 8191]])
    finally:
        store.close()
    assert peak < 1 << 20, f"build peaked at {peak / 2**20:.2f} MiB"


class TestRebuildOverAStore:
    def test_a_crash_before_the_manifest_is_detected_never_served(
        self, tmp_path, monkeypatch
    ):
        """A build over an existing store that dies at the manifest write
        leaves the old manifest naming shards already replaced: every
        changed page fails its CRC, and no row of them is served."""
        rng = np.random.default_rng(11)
        old = rng.standard_normal((32, 4))
        EmbeddingStore.build(
            tmp_path, {"t": old}, num_shards=2, page_bytes=64
        ).close()
        write = store_module.atomic_write_bytes

        def manifest_fails(path, payload):
            if path.name == MANIFEST_NAME:
                raise OSError("injected crash at the manifest write")
            return write(path, payload)

        monkeypatch.setattr(store_module, "atomic_write_bytes", manifest_fails)
        with pytest.raises(OSError, match="injected"):
            EmbeddingStore.build(
                tmp_path, {"t": rng.standard_normal((32, 4))},
                num_shards=2, page_bytes=64,
            )
        monkeypatch.undo()
        survivor = EmbeddingStore.open(tmp_path)
        try:
            report = survivor.verify()
            assert report.pages_scanned == 16  # 2 shards x 8 two-row pages
            assert report.pages_bad == 16
            with pytest.raises(QuarantinedRowError):
                survivor.read_row("t", 5)
            with pytest.raises(QuarantinedRowError):
                survivor.read_table("t")
        finally:
            survivor.close()
