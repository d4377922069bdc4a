"""Rows that reach ``EmbeddingStore.build`` off disk, through a memory
map, write the files their in-RAM copy writes, and a shard written from
a byte view of its rows records what a one-shot write of its bytes
records."""

import hashlib
import json

import numpy as np
import pytest

from repro.reliability.checkpoint import atomic_write_bytes
from repro.store import (
    EmbeddingStore,
    MANIFEST_NAME,
    ShardInfo,
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
@pytest.mark.parametrize("leading_rows", [0, 4])
def test_streamed_build_matches_in_ram_build(tmp_path, num_shards, leading_rows):
    """Each table is saved behind ``leading_rows`` rows of other data,
    memory-mapped back and handed over as the window after them: the
    build streams the mapped rows to the shards and writes the files
    the in-RAM build writes, each shard exactly its rows' bytes."""
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
    (tmp_path / "saved").mkdir()
    mapped = {}
    for name, array in arrays.items():
        path = tmp_path / "saved" / f"{name}.npy"
        padding = np.full((leading_rows,) + array.shape[1:], 9, array.dtype)
        np.save(path, np.concatenate([padding, array]))
        mapped[name] = np.load(path, mmap_mode="r")[leading_rows:]
    EmbeddingStore.build(tmp_path / "mapped", mapped, **geometry).close()
    assert directory_bytes(tmp_path / "ram") == directory_bytes(tmp_path / "mapped")


def test_streaming_writer_matches_one_shot_shard(tmp_path):
    """A shard whose rows straddle page boundaries: the ``ShardInfo``
    the build records from a byte view of them is the SHA-256 and the
    page CRCs of a one-shot write of the same bytes."""
    payload = bytes(range(256)) * 5
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 10)
    store = EmbeddingStore.build(tmp_path / "built", {"t": rows}, page_bytes=128)
    page_nbytes = store.spec("t").rows_per_page * rows.shape[1]
    store.close()
    manifest = json.loads((tmp_path / "built" / MANIFEST_NAME).read_bytes())
    [built] = map(ShardInfo.from_manifest, manifest["tables"]["t"]["shards"])
    assert page_nbytes == 120  # twelve 10-byte rows; pages end mid-pattern
    one_shot = tmp_path / "one_shot.bin"
    expected = ShardInfo(
        file=shard_filename("t", 0),
        nbytes=len(payload),
        sha256=atomic_write_bytes(one_shot, payload),
        page_crcs=tuple(page_crc32s(payload, page_nbytes)),
    )
    assert built == expected
    assert built.sha256 == hashlib.sha256(payload).hexdigest()
    assert (tmp_path / "built" / built.file).read_bytes() == (
        one_shot.read_bytes()
    ) == payload
