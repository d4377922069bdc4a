"""Engine behaviour: roundtrips, cache, quarantine, scrub, repair."""

import itertools

import numpy as np
import pytest

from repro.store import (
    EmbeddingStore,
    MANIFEST_NAME,
    QuarantinedRowError,
    RepairReport,
    ScrubReport,
    StoreError,
    StoreManifestError,
    StoreSchemaError,
    StoreTable,
    shard_filename,
)


def flip_byte(path, offset=10):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestBuildOpen:
    def test_roundtrip_bytes(self, tmp_path, store, arrays):
        reopened = EmbeddingStore.open(store.directory)
        for name, array in arrays.items():
            assert np.array_equal(reopened.read_table(name), array)
        reopened.close()

    def test_same_input_builds_are_byte_identical(self, tmp_path, arrays):
        for run in ("r1", "r2"):
            EmbeddingStore.build(
                tmp_path / run, arrays, num_shards=3, page_bytes=128
            ).close()
        files = sorted(p.name for p in (tmp_path / "r1").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "r2").iterdir())
        for name in files:
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes(), name

    def test_empty_store_is_rejected(self, tmp_path):
        with pytest.raises(StoreSchemaError):
            EmbeddingStore.build(tmp_path / "s", {})

    def test_open_missing_directory_is_refused(self, tmp_path):
        with pytest.raises(StoreManifestError, match="no store manifest"):
            EmbeddingStore.open(tmp_path / "nowhere")

    def test_torn_manifest_is_refused(self, store):
        manifest = store.directory / MANIFEST_NAME
        manifest.write_bytes(manifest.read_bytes()[:-40])
        with pytest.raises(StoreManifestError):
            EmbeddingStore.open(store.directory)

    def test_bit_flipped_manifest_is_refused(self, store):
        flip_byte(store.directory / MANIFEST_NAME, offset=60)
        with pytest.raises(StoreManifestError):
            EmbeddingStore.open(store.directory)

    def test_metadata_survives_reopen(self, store):
        assert EmbeddingStore.open(store.directory).metadata == {"kind": "test"}


class TestReads:
    def test_read_row_matches_source(self, store, arrays):
        for row in (0, 13, 36):
            assert np.array_equal(
                store.read_row("entity_table", row), arrays["entity_table"][row]
            )

    def test_read_rows_any_shape(self, store, arrays):
        index = np.array([[0, 5], [36, 2]])
        assert np.array_equal(
            store.read_rows("entity_table", index), arrays["entity_table"][index]
        )

    def test_negative_rows_wrap(self, store, arrays):
        assert np.array_equal(
            store.read_row("entity_table", -1), arrays["entity_table"][-1]
        )

    def test_out_of_range_raises_index_error(self, store):
        with pytest.raises(IndexError):
            store.read_row("entity_table", 37)
        with pytest.raises(IndexError):
            store.read_rows("entity_table", np.array([0, 99]))

    def test_out_of_range_names_the_requested_row(self, store):
        table = StoreTable(store, "entity_table")
        for read in (
            lambda row: store.read_row("entity_table", row),
            lambda row: store.read_rows("entity_table", [0, row]),
            lambda row: table[np.int64(row)],
        ):
            for row in (37, -38, -1000):
                with pytest.raises(IndexError, match=f"row {row} out of range"):
                    read(row)

    def test_out_of_range_is_refused_before_any_page_is_touched(self, store):
        with pytest.raises(IndexError):
            store.read_rows("entity_table", np.array([0, 1, 99]))
        snapshot = store.metrics.snapshot()
        assert snapshot["store.page_faults"] == snapshot["store.page_hits"] == 0

    @pytest.mark.parametrize(
        "index",
        [[1.7, 2.2], np.array([1.0]), np.array(2.0), np.array(["1"]), [None]],
    )
    def test_non_integer_index_is_refused_like_numpy(self, store, arrays, index):
        message = "arrays used as indices must be of integer"
        with pytest.raises(IndexError, match=message):
            arrays["entity_table"][np.asarray(index)]
        with pytest.raises(IndexError, match=message):
            store.read_rows("entity_table", index)
        with pytest.raises(TypeError):
            store.read_row("entity_table", 1.7)

    def test_bool_mask_is_still_a_type_error(self, store):
        with pytest.raises(TypeError, match="boolean masks"):
            store.read_rows("entity_table", np.ones(37, dtype=bool))

    @pytest.mark.parametrize("row", [True, False, np.True_, np.False_])
    def test_a_bool_row_is_refused_not_read_as_row_1_or_0(self, store, row):
        table = StoreTable(store, "entity_table")
        for read in (
            lambda: store.read_row("entity_table", row),
            lambda: store.read_rows("entity_table", row),
            lambda: table[row],
        ):
            with pytest.raises(TypeError, match="boolean masks"):
                read()
        snapshot = store.metrics.snapshot()
        assert snapshot["store.page_faults"] == snapshot["store.page_hits"] == 0

    def test_unsigned_and_narrow_integer_indices(self, store, arrays):
        for dtype in (np.uint64, np.uint8, np.int8, np.int32):
            index = np.array([0, 36, 5], dtype=dtype)
            assert np.array_equal(
                store.read_rows("entity_table", index),
                arrays["entity_table"][index],
            )
        with pytest.raises(IndexError, match="row 18446744073709551615 out of"):
            store.read_rows("entity_table", np.array([2**64 - 1], dtype=np.uint64))

    def test_unknown_table_raises_schema_error(self, store):
        with pytest.raises(StoreSchemaError, match="no table"):
            store.read_row("nope", 0)

    def test_cache_stays_within_budget(self, store):
        store.read_table("entity_table")
        store.read_table("transfer")
        assert len(store._cache) <= 4
        snapshot = store.metrics.snapshot()
        assert snapshot["store.page_evictions"] > 0
        assert snapshot["store.page_faults"] > 0

    def test_page_hits_are_counted(self, store):
        store.read_row("entity_table", 0)
        before = store.metrics.snapshot()["store.page_hits"]
        store.read_row("entity_table", 0)
        assert store.metrics.snapshot()["store.page_hits"] == before + 1


class TestStoreTable:
    def test_matches_numpy_semantics(self, store, arrays):
        table = StoreTable(store, "entity_table")
        source = arrays["entity_table"]
        assert table.shape == source.shape
        assert table.dtype == source.dtype
        assert len(table) == len(source)
        assert np.array_equal(table[7], source[7])
        assert np.array_equal(table[2:20:3], source[2:20:3])
        assert np.array_equal(table[[4, 1, 4]], source[[4, 1, 4]])
        assert np.array_equal(table[np.array([[0, 1], [2, 3]])],
                              source[np.array([[0, 1], [2, 3]])])
        assert np.array_equal(np.asarray(table), source)

    def test_tuple_indexing(self, store, arrays):
        table = StoreTable(store, "transfer")
        source = arrays["transfer"]
        index = np.array([0, 3, 1])
        assert np.array_equal(table[index, 1], source[index, 1])

    #: Every kind of row key numpy takes, against a 37-row table
    #: (``table[3, 2]`` used to raise "too many indices for array").
    ROW_KEYS = [
        3,
        -1,
        np.int64(36),
        slice(2, 30, 5),
        slice(None),
        slice(10, 2, -3),
        [4, 1, 4],
        [],
        np.array([7, -2]),
        np.array([[0, 1], [36, -37]]),
        np.array(5),
    ]

    @pytest.mark.parametrize("name", ["entity_table", "transfer"])
    def test_tuple_indexing_matches_numpy(self, store, arrays, name):
        table = StoreTable(store, name)
        source = arrays[name]
        in_row_keys = [(), (2,), (-1,), (slice(1, 3),), ([0, 3],), (np.array([1, 0]),)]
        if source.ndim == 3:
            in_row_keys += [(1, 2), (slice(None), 0), (0, [0, 2]), ([0, 1], slice(1, 4))]
            row_keys = [
                key % 5 if isinstance(key, (int, np.integer, np.ndarray)) else key
                for key in self.ROW_KEYS
            ]
        else:
            row_keys = self.ROW_KEYS
        for row_key, in_row in itertools.product(row_keys, in_row_keys):
            key = (row_key, *in_row)
            try:
                want = source[key]
            except IndexError:
                with pytest.raises(IndexError):
                    table[key]
                continue
            got = table[key]
            assert np.shape(got) == np.shape(want), key
            assert np.array_equal(got, want), key


class TestQuarantine:
    def corrupt_shard(self, store, name="entity_table", shard=1, offset=10):
        flip_byte(store.directory / shard_filename(name, shard), offset)

    def test_lazy_detection_on_first_fault(self, store, arrays):
        self.corrupt_shard(store)
        spec = store.spec("entity_table")
        bad_row = spec.global_row(1, 0)
        with pytest.raises(QuarantinedRowError) as excinfo:
            store.read_row("entity_table", bad_row)
        assert excinfo.value.table == "entity_table"
        # Quarantine is part of the store error hierarchy (callers can
        # catch StoreError) *and* a LookupError (degraded-read policy).
        assert isinstance(excinfo.value, StoreError)
        assert isinstance(excinfo.value, LookupError)
        assert store.quarantined_pages() == [("entity_table", 1, 0)]
        # Healthy rows on other pages still read clean.
        assert np.array_equal(
            store.read_row("entity_table", 0), arrays["entity_table"][0]
        )

    def test_scrub_quarantines_verify_does_not(self, tmp_path, arrays):
        for mode in ("verify", "scrub"):
            built = EmbeddingStore.build(
                tmp_path / mode, arrays, num_shards=3, page_bytes=128
            )
            self.corrupt_shard(built)
            report = getattr(built, mode)()
            assert isinstance(report, ScrubReport)
            assert report.pages_bad == 1
            assert not report.clean
            expected = [("entity_table", 1, 0)] if mode == "scrub" else []
            assert built.quarantined_pages() == expected
            built.close()

    def test_torn_write_quarantines_tail_pages(self, store):
        shard_path = store.directory / shard_filename("entity_table", 0)
        size = shard_path.stat().st_size
        with open(shard_path, "r+b") as handle:
            handle.truncate(size // 2)
        report = store.scrub()
        torn = [k for k in report.bad_pages if k[0] == "entity_table"]
        assert torn  # pages at/after the tear fail
        assert all(key[1] == 0 for key in torn)

    def test_quarantined_reads_are_counted(self, store):
        self.corrupt_shard(store)
        store.scrub()
        spec = store.spec("entity_table")
        bad_row = spec.global_row(1, 0)
        for _ in range(3):
            with pytest.raises(QuarantinedRowError):
                store.read_row("entity_table", bad_row)
        assert store.metrics.snapshot()["store.quarantined_reads"] == 3

    def test_quarantined_rows_enumerates_damage(self, store):
        self.corrupt_shard(store)
        store.scrub()
        spec = store.spec("entity_table")
        start, stop = spec.page_rows(1, 0)
        expected = sorted(spec.global_row(1, r) for r in range(start, stop))
        assert store.quarantined_rows("entity_table") == expected


class TestCheckPage:
    def test_iter_page_keys_is_sorted_and_complete(self, store):
        keys = store.iter_page_keys()
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
        assert all(name in store.table_names() for name, _, _ in keys)

    def test_check_page_true_on_clean_false_on_damage(self, store):
        keys = store.iter_page_keys()
        assert store.check_page(keys[0], quarantine=True)
        flip_byte(store.directory / shard_filename("entity_table", 1))
        damaged = [
            key
            for key in keys
            if not store.check_page(key, quarantine=False)
        ]
        assert damaged
        # quarantine=False probes without convicting.
        assert store.quarantine == set()


class TestRepair:
    @pytest.fixture()
    def replica(self, tmp_path, arrays):
        built = EmbeddingStore.build(
            tmp_path / "replica", arrays, num_shards=3, page_bytes=128
        )
        yield built
        built.close()

    def test_repair_restores_bytes_exactly(self, store, replica, arrays):
        target = store.directory / shard_filename("entity_table", 1)
        pristine = target.read_bytes()
        flip_byte(target)
        store.scrub()
        report = store.repair(replica)
        assert isinstance(report, RepairReport)
        assert report.complete
        assert report.pages_repaired == 1
        assert target.read_bytes() == pristine
        assert store.quarantined_pages() == []
        assert np.array_equal(store.read_table("entity_table"),
                              arrays["entity_table"])
        assert store.scrub().clean

    def test_repair_after_torn_write(self, store, replica, arrays):
        target = store.directory / shard_filename("transfer", 0)
        with open(target, "r+b") as handle:
            handle.truncate(1)
        store.scrub()
        assert store.repair(replica).complete
        assert np.array_equal(store.read_table("transfer"), arrays["transfer"])

    def test_corrupt_donor_is_rejected(self, store, replica):
        flip_byte(store.directory / shard_filename("entity_table", 1))
        flip_byte(replica.directory / shard_filename("entity_table", 1))
        store.scrub()
        report = store.repair(replica)
        assert report.pages_unrepairable == 1
        assert store.quarantined_pages() == [("entity_table", 1, 0)]

    def test_mismatched_replica_is_rejected(self, store, tmp_path, arrays):
        other = EmbeddingStore.build(
            tmp_path / "other",
            {"entity_table": np.zeros((37, 4))},
            num_shards=2,
            page_bytes=128,
        )
        flip_byte(store.directory / shard_filename("entity_table", 1))
        store.scrub()
        report = store.repair(other)
        assert report.pages_unrepairable == 1
        other.close()

    def test_restore_manifest_from_replica(self, store, replica):
        manifest = store.directory / MANIFEST_NAME
        manifest.write_bytes(manifest.read_bytes()[: manifest.stat().st_size // 2])
        store.close()
        with pytest.raises(StoreManifestError):
            EmbeddingStore.open(store.directory)
        EmbeddingStore.restore_manifest(store.directory, replica.directory)
        reopened = EmbeddingStore.open(store.directory)
        assert reopened.verify().clean
        reopened.close()

    def test_restore_manifest_refuses_damaged_donor(self, store, replica):
        donor_manifest = replica.directory / MANIFEST_NAME
        flip_byte(donor_manifest, offset=30)
        with pytest.raises(StoreManifestError):
            EmbeddingStore.restore_manifest(store.directory, replica.directory)


class TestDeterministicAccounting:
    def test_identical_runs_produce_identical_metrics(self, tmp_path, arrays):
        snapshots = []
        for run in ("a", "b"):
            built = EmbeddingStore.build(
                tmp_path / run, arrays, num_shards=3, page_bytes=128,
                cache_pages=4,
            )
            flip_byte(built.directory / shard_filename("entity_table", 1))
            built.scrub()
            bad_row = built.quarantined_rows("entity_table")[0]
            quarantined_reads = 0
            for row in (0, 5, bad_row, 36):
                try:
                    built.read_row("entity_table", row)
                except QuarantinedRowError:
                    quarantined_reads += 1
            assert quarantined_reads == 1
            snapshots.append(built.metrics.snapshot())
            built.close()
        assert snapshots[0] == snapshots[1]
