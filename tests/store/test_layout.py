"""Geometry and manifest self-checksum invariants."""

import pytest

from repro.store import (
    STORE_VERSION,
    StoreManifestError,
    StoreSchemaError,
    TableSpec,
    manifest_checksum,
    parse_manifest,
    seal_manifest,
    shard_filename,
)
from repro.store.layout import canonical_json


def make_spec(**overrides):
    base = dict(
        name="entity_table",
        dtype="float64",
        row_shape=(4,),
        rows=37,
        num_shards=3,
        page_bytes=128,
    )
    base.update(overrides)
    return TableSpec(**base)


class TestTableSpec:
    def test_row_geometry(self):
        spec = make_spec()
        assert spec.row_nbytes == 32
        assert spec.row_elems == 4
        assert spec.shape == (37, 4)
        assert spec.nbytes == 37 * 32
        assert spec.rows_per_page == 4  # 128 // 32

    def test_pages_are_row_aligned_even_for_oversized_rows(self):
        spec = make_spec(row_shape=(8, 8), page_bytes=64)  # 512-byte rows
        assert spec.rows_per_page == 1

    def test_locate_and_global_row_are_inverse(self):
        spec = make_spec()
        for row in range(spec.rows):
            shard, local = spec.locate(row)
            assert 0 <= shard < spec.num_shards
            assert spec.global_row(shard, local) == row

    def test_shards_partition_rows(self):
        """Pages in file order hold every row once, in row order, each
        shard its ``shard_rows`` and each row where ``locate`` says."""
        spec = make_spec()
        seen = []
        per_shard = [0] * spec.num_shards
        for shard, page in spec.pages():
            rows = spec.page_global_rows(shard, page)
            per_shard[shard] += len(rows)
            for row in rows:
                assert spec.locate(row) == (
                    shard, page * spec.rows_per_page + row - rows.start
                )
            seen.extend(rows)
        assert seen == list(range(spec.rows))
        assert per_shard == [spec.shard_rows(s) for s in range(spec.num_shards)]

    def test_page_byte_range_covers_shard(self):
        spec = make_spec()
        for shard in range(spec.num_shards):
            total = 0
            for page in range(spec.shard_pages(shard)):
                start, stop = spec.page_byte_range(shard, page)
                assert stop > start
                total += stop - start
            assert total == spec.shard_nbytes(shard)

    def test_out_of_range_rows_and_shards_raise(self):
        spec = make_spec()
        with pytest.raises(IndexError):
            spec.locate(spec.rows)
        with pytest.raises(IndexError):
            spec.global_row(spec.num_shards, 0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": "bad/name"},
            {"rows": -1},
            {"num_shards": 0},
            {"layout": "mirrored"},
            {"page_bytes": 0},
            # A store written with the row-modulo layout fails closed.
            {"layout": "strided"},
        ],
    )
    def test_invalid_specs_are_rejected(self, overrides):
        entry = {**make_spec().to_manifest(), **overrides}
        with pytest.raises(StoreSchemaError):
            TableSpec.from_manifest(entry.pop("name", "entity_table"), entry)

    def test_manifest_roundtrip(self):
        spec = make_spec()
        assert TableSpec.from_manifest("entity_table", spec.to_manifest()) == spec


class TestManifestChecksum:
    def document(self):
        return seal_manifest(
            {
                "version": STORE_VERSION,
                "page_bytes": 128,
                "metadata": {},
                "tables": {},
            }
        )

    def test_sealed_manifest_parses(self):
        doc = self.document()
        assert parse_manifest(canonical_json(doc)) == doc

    def test_checksum_excludes_itself(self):
        doc = self.document()
        assert manifest_checksum(doc) == doc["checksum"]

    def test_any_field_change_is_refused(self):
        doc = self.document()
        doc["page_bytes"] = 256
        with pytest.raises(StoreManifestError, match="self-checksum"):
            parse_manifest(canonical_json(doc))

    def test_truncation_is_refused(self):
        payload = canonical_json(self.document())
        with pytest.raises(StoreManifestError, match="unreadable"):
            parse_manifest(payload[: len(payload) // 2])

    def test_non_object_is_refused(self):
        with pytest.raises(StoreManifestError, match="not a JSON object"):
            parse_manifest(b"[1, 2]")

    def test_wrong_version_is_refused(self):
        doc = seal_manifest(
            {"version": 99, "page_bytes": 128, "metadata": {}, "tables": {}}
        )
        with pytest.raises(StoreManifestError, match="version"):
            parse_manifest(canonical_json(doc))


def test_shard_filenames_are_stable():
    assert shard_filename("entity_table", 3) == "entity_table-0003.bin"
