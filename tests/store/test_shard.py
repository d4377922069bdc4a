"""Shard-file layer: atomic writes, CRC records, lazy mmap reads."""

import hashlib

import numpy as np
import pytest

from repro.store import (
    ShardInfo,
    ShardReader,
    StreamingShardWriter,
    TableSpec,
    page_crc32s,
    shard_filename,
)


def write_shard(directory, filename, data, page_nbytes):
    """One whole shard through the (only) writer."""
    writer = StreamingShardWriter(directory, filename, page_nbytes)
    writer.write(data)
    return writer.finish()


def make_spec(rows=16, page_bytes=64):
    return TableSpec(
        name="t",
        dtype="float64",
        row_shape=(4,),
        rows=rows,
        num_shards=1,
        page_bytes=page_bytes,
    )


def shard_bytes(spec, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((spec.rows, 4)).astype(np.float64).tobytes()


class TestPageCrc32s:
    def test_covers_every_byte_including_short_tail(self):
        data = bytes(range(0, 250))
        crcs = page_crc32s(data, 64)
        assert len(crcs) == 4  # 64+64+64+58
        import zlib

        assert crcs[-1] == zlib.crc32(data[192:])

    def test_rejects_non_positive_page(self):
        with pytest.raises(ValueError):
            page_crc32s(b"abc", 0)


class TestWriteShard:
    def test_roundtrip_through_reader(self, tmp_path):
        spec = make_spec()
        data = shard_bytes(spec)
        info = write_shard(
            tmp_path, shard_filename("t", 0), data, spec.page_bytes
        )
        assert isinstance(info, ShardInfo)
        assert info.nbytes == len(data)
        assert info.sha256 == hashlib.sha256(data).hexdigest()
        assert info.page_crcs == tuple(page_crc32s(data, spec.page_bytes))
        assert not list(tmp_path.glob(".*.tmp.*"))  # renamed, not copied
        reader = ShardReader(tmp_path / info.file, spec, 0, info)
        for page in range(spec.shard_pages(0)):
            start, stop = spec.page_byte_range(0, page)
            chunk, ok = reader.read_page(page)
            assert ok and chunk == data[start:stop]
        assert reader.raw_bytes() == data
        reader.close()

    def test_manifest_record_roundtrips(self, tmp_path):
        spec = make_spec()
        info = write_shard(
            tmp_path, shard_filename("t", 0), shard_bytes(spec),
            spec.page_bytes,
        )
        assert ShardInfo.from_manifest(info.to_manifest()) == info


class TestReaderDamage:
    def test_torn_file_fails_pages_past_the_tear(self, tmp_path):
        spec = make_spec()
        data = shard_bytes(spec)
        info = write_shard(
            tmp_path, shard_filename("t", 0), data, spec.page_bytes
        )
        (tmp_path / info.file).write_bytes(data[: spec.page_bytes + 7])
        reader = ShardReader(tmp_path / info.file, spec, 0, info)
        _, ok0 = reader.read_page(0)
        assert ok0  # page before the tear still verifies
        for page in range(1, spec.shard_pages(0)):
            _, ok = reader.read_page(page)
            assert not ok
        reader.close()

    def test_bit_flip_fails_exactly_one_page(self, tmp_path):
        spec = make_spec()
        data = shard_bytes(spec)
        info = write_shard(
            tmp_path, shard_filename("t", 0), data, spec.page_bytes
        )
        blob = bytearray(data)
        blob[spec.page_bytes + 3] ^= 0x01  # inside page 1
        (tmp_path / info.file).write_bytes(bytes(blob))
        reader = ShardReader(tmp_path / info.file, spec, 0, info)
        verdicts = [
            reader.read_page(page)[1]
            for page in range(spec.shard_pages(0))
        ]
        assert verdicts.count(False) == 1 and verdicts[1] is False
        reader.close()

    def test_missing_file_fails_every_page_without_raising(self, tmp_path):
        spec = make_spec()
        info = ShardInfo(
            file=shard_filename("t", 0), nbytes=spec.nbytes,
            sha256="0" * 64,
            page_crcs=tuple(0 for _ in range(spec.shard_pages(0))),
        )
        reader = ShardReader(tmp_path / info.file, spec, 0, info)
        for page in range(spec.shard_pages(0)):
            data, ok = reader.read_page(page)
            assert data == b"" and not ok
        assert reader.raw_bytes() == b""
        reader.close()

    def test_out_of_range_page_is_damage_not_error(self, tmp_path):
        spec = make_spec()
        info = write_shard(
            tmp_path, shard_filename("t", 0), shard_bytes(spec),
            spec.page_bytes,
        )
        reader = ShardReader(tmp_path / info.file, spec, 0, info)
        assert reader.read_page(spec.shard_pages(0) - 1)[1]
        data, ok = reader.read_page(spec.shard_pages(0))
        assert data == b"" and not ok
        reader.close()
