"""The streaming build is the only write path: chunk sizes must never
change the bytes on disk, and those bytes must be the rows themselves."""

import hashlib

import numpy as np
import pytest

from repro.store import (
    EmbeddingStore,
    MANIFEST_NAME,
    RowSource,
    StoreSchemaError,
    StreamingShardWriter,
    page_crc32s,
    shard_filename,
)


def make_arrays(rng):
    return {
        "entity": rng.standard_normal((37, 6)).astype(np.float32),
        "relation": rng.standard_normal((5, 6)).astype(np.float64),
        "ids": np.arange(37, dtype=np.int64),
    }


def directory_bytes(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


@pytest.mark.parametrize("num_shards", [1, 3])
@pytest.mark.parametrize("chunk_rows", [0, 4])
def test_streamed_build_matches_in_ram_build(tmp_path, num_shards, chunk_rows):
    """``build`` hands each array over as one chunk; re-chunking it
    (the parametrized size, then 1 and 7 rows) writes identical files,
    and every shard file is exactly its rows' bytes — the reference
    gather the deleted in-RAM loop used to do."""
    arrays = make_arrays(np.random.default_rng(7))
    geometry = dict(num_shards=num_shards, page_bytes=256)
    store = EmbeddingStore.build(tmp_path / "ram", arrays, **geometry)
    for name, array in arrays.items():
        spec = store.spec(name)
        for shard in range(num_shards):
            first = spec.global_row(shard, 0)
            rows = slice(first, first + spec.shard_rows(shard))
            on_disk = (tmp_path / "ram" / shard_filename(name, shard)).read_bytes()
            assert on_disk == array[rows].tobytes(), (name, shard)
    store.close()
    for rows_per_chunk in (chunk_rows, 1, 7):
        target = tmp_path / f"stream{rows_per_chunk}"
        sources = {
            name: RowSource.from_array(array, chunk_rows=rows_per_chunk)
            for name, array in arrays.items()
        }
        EmbeddingStore.build_from_rows(target, sources, **geometry).close()
        assert directory_bytes(tmp_path / "ram") == directory_bytes(target)


def test_streamed_store_reads_back_rows(tmp_path):
    array = np.random.default_rng(1).standard_normal((20, 3)).astype(
        np.float32
    )
    store = EmbeddingStore.build_from_rows(
        tmp_path,
        {"table": RowSource.from_array(array, chunk_rows=6)},
        num_shards=2,
        page_bytes=128,
    )
    try:
        assert np.array_equal(store.read_table("table"), array)
        assert np.array_equal(store.read_row("table", 13), array[13])
    finally:
        store.close()


def test_streaming_writer_matches_one_shot_shard(tmp_path):
    payload = bytes(range(256)) * 5
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    whole = StreamingShardWriter(tmp_path / "a", "shard.bin", 128)
    whole.write(payload)
    one_shot = whole.finish()
    writer = StreamingShardWriter(tmp_path / "b", "shard.bin", 128)
    for start in range(0, len(payload), 100):  # straddles page boundaries
        writer.write(payload[start : start + 100])
    streamed = writer.finish()
    assert streamed == one_shot
    assert streamed.sha256 == hashlib.sha256(payload).hexdigest()
    assert streamed.page_crcs == tuple(page_crc32s(payload, 128))
    assert (tmp_path / "a" / "shard.bin").read_bytes() == (
        tmp_path / "b" / "shard.bin"
    ).read_bytes() == payload


def test_empty_table_streams(tmp_path):
    empty = np.zeros((0, 4), dtype=np.float32)
    store = EmbeddingStore.build_from_rows(
        tmp_path, {"empty": RowSource.from_array(empty)}
    )
    try:
        assert store.read_table("empty").shape == (0, 4)
    finally:
        store.close()


class TestAbortSemantics:
    def test_dtype_mismatch_leaves_no_manifest(self, tmp_path):
        source = RowSource(
            dtype="float32",
            row_shape=(4,),
            rows=8,
            chunks=lambda: [np.zeros((8, 4), dtype=np.float64)],
        )
        with pytest.raises(StoreSchemaError, match="dtype"):
            EmbeddingStore.build_from_rows(tmp_path, {"bad": source})
        assert not (tmp_path / MANIFEST_NAME).exists()
        assert not list(tmp_path.glob("*.tmp*"))

    def test_short_source_leaves_no_manifest(self, tmp_path):
        source = RowSource(
            dtype="float32",
            row_shape=(4,),
            rows=10,
            chunks=lambda: [np.zeros((6, 4), dtype=np.float32)],
        )
        with pytest.raises(StoreSchemaError, match="yielded 6 rows"):
            EmbeddingStore.build_from_rows(tmp_path, {"bad": source})
        assert not (tmp_path / MANIFEST_NAME).exists()

    def test_overlong_source_leaves_no_manifest(self, tmp_path):
        source = RowSource(
            dtype="float32",
            row_shape=(4,),
            rows=4,
            chunks=lambda: [np.zeros((8, 4), dtype=np.float32)],
        )
        with pytest.raises(StoreSchemaError, match="more than"):
            EmbeddingStore.build_from_rows(tmp_path, {"bad": source})
        assert not (tmp_path / MANIFEST_NAME).exists()
