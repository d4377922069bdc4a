"""The page-grouped gather against its oracles.

``EmbeddingStore.read_rows`` groups a request by page and walks the
distinct pages in one fault loop.  Four independent references pin it
down:

* numpy itself — ``array[idx]``, bytes and shape, over a hypothesis
  sweep of dtypes, row shapes, shard counts, page sizes and index shapes;
* :class:`PageLoop` — the page policy as a page-at-a-time loader over
  an ``OrderedDict`` LRU that charges every counter as it goes, with
  the grouped gather the fault loop replaced on top of it: after every
  call of a random sequence, the same bytes, counters, LRU order and
  errors;
* :func:`reference_read_rows` — the per-row loop before that, over the
  same loader: same outputs, same per-row accounting, never more faults
  from an equal cache state, and the same quarantine behaviour;
* exact work counts — shard-file reads plus cache refreshes per gather
  and per full table read.

The cold open (``PKGMServer.from_store``) reads its selector tables
through the same walk; its quarantine tolerance is checked last.
"""

import itertools
import tempfile
import zlib
from collections import Counter, OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import KeyRelationSelector, PKGM, PKGMConfig, PKGMServer
from repro.kg import TripleStore
from repro.obs.metrics import MetricsRegistry
from repro.store import EmbeddingStore, QuarantinedRowError, shard_filename

#: The read-path counters the oracles compare (and ``store.cached_pages``).
STORE_COUNTERS = (
    "page_hits",
    "page_faults",
    "bytes_read",
    "page_evictions",
    "crc_failures",
    "pages_quarantined",
    "quarantined_reads",
)


class PageLoop:
    """The store's page policy, one page at a time — the oracle.

    A page comes through :meth:`load_page`: quarantine check, then an
    ``OrderedDict`` LRU, then a CRC-checked read from the shard readers
    of its own handle on the store directory, charging each counter the
    moment it happens.  :meth:`read_rows` is the grouped gather built on
    it (one load per distinct page in first-touch order, rows copied out
    page by page); :meth:`read_table` and :meth:`salvage_table` walk
    every page in file order, one load each.
    """

    def __init__(self, directory, cache_pages):
        self.store = EmbeddingStore.open(directory)  # specs and readers only
        self.capacity = max(1, cache_pages)
        self.lru = OrderedDict()
        self.quarantine = set()
        self.metrics = MetricsRegistry()
        for name in STORE_COUNTERS:
            self.metrics.counter(f"store.{name}")
        self.metrics.gauge("store.cached_pages")

    def close(self):
        self.store.close()

    def quarantined_pages(self):
        return sorted(self.quarantine)

    def _inc(self, name, amount=1):
        self.metrics.counter(f"store.{name}").inc(amount)

    def denied(self, key):
        name, shard, page = key
        spec = self.store.spec(name)
        self._inc("quarantined_reads")
        return QuarantinedRowError(
            name, spec.global_row(shard, page * spec.rows_per_page), shard, page
        )

    def load_page(self, name, shard, page):
        key = (name, shard, page)
        if key in self.quarantine:
            raise self.denied(key)
        if key in self.lru:
            self.lru.move_to_end(key)
            self._inc("page_hits")
            return self.lru[key]
        data, ok = self.store._table(name).readers[shard].read_page(page)
        self._inc("page_faults")
        self._inc("bytes_read", len(data))
        if not ok:
            self._inc("crc_failures")
            if key not in self.quarantine:
                self.quarantine.add(key)
                self._inc("pages_quarantined")
            raise self.denied(key)
        self.lru[key] = data
        while len(self.lru) > self.capacity:
            self.lru.popitem(last=False)
            self._inc("page_evictions")
        self.metrics.gauge("store.cached_pages").set(len(self.lru))
        return data

    def _page_rows(self, spec, shard, page, reads):
        data = self.load_page(spec.name, shard, page)
        self._inc("page_hits", reads - 1)
        return np.frombuffer(data, dtype=spec.dtype).reshape(-1, spec.row_elems)

    def read_rows(self, name, rows):
        spec = self.store.spec(name)
        index = np.asarray(rows)
        flat = index.reshape(-1).astype(np.int64)
        flat = np.where(flat < 0, flat + spec.rows, flat)
        out = np.empty((flat.size, spec.row_elems), dtype=spec.dtype)
        groups = {}  # (shard, page) → [(position, slot)], first touch first
        for position, row in enumerate(flat.tolist()):
            shard, local = spec.locate(row)
            page, slot = divmod(local, spec.rows_per_page)
            groups.setdefault((shard, page), []).append((position, slot))
        for (shard, page), members in groups.items():
            try:
                page_rows = self._page_rows(spec, shard, page, len(members))
            except QuarantinedRowError:
                self._inc("quarantined_reads", len({s for _, s in members}) - 1)
                raise
            for position, slot in members:
                out[position] = page_rows[slot]
        return out.reshape(index.shape + spec.row_shape)

    def read_row(self, name, row):
        return self.read_rows(name, np.asarray(row))

    def salvage_table(self, name, tolerant=True):
        spec = self.store.spec(name)
        out = np.zeros((spec.rows, spec.row_elems), dtype=spec.dtype)
        readable = np.ones(spec.rows, dtype=bool)
        for shard, page in spec.pages():
            held = spec.page_global_rows(shard, page)
            on_page = slice(held.start, held.stop, held.step)
            try:
                out[on_page] = self._page_rows(spec, shard, page, len(held))
            except QuarantinedRowError:
                if not tolerant:
                    raise
                self._inc("quarantined_reads", len(held) - 1)
                readable[on_page] = False
        return out.reshape(spec.shape), readable

    def read_table(self, name):
        return self.salvage_table(name, tolerant=False)[0]


def reference_read_rows(loop, name, rows):
    """The per-row gather before page grouping, over :class:`PageLoop`."""
    spec = loop.store.spec(name)
    index = np.asarray(rows)
    flat = index.reshape(-1).astype(np.int64)
    flat = np.where(flat < 0, flat + spec.rows, flat)
    out = np.empty((flat.size, spec.row_elems), dtype=spec.dtype)
    for position, row in enumerate(flat):
        shard, local = spec.locate(int(row))
        page = spec.page_of(local)
        data = loop.load_page(name, shard, page)
        offset = (local - page * spec.rows_per_page) * spec.row_nbytes
        out[position] = np.frombuffer(
            data, dtype=spec.dtype, count=spec.row_elems, offset=offset
        )
    return out.reshape(index.shape + spec.row_shape)


def counters(store):
    snapshot = store.metrics.snapshot()
    return {
        key: snapshot[f"store.{key}"]
        for key in ("page_hits", "page_faults", "bytes_read")
    }


def make_array(rows, row_shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    if dtype == "int64":
        return rng.integers(-(2**40), 2**40, size=(rows, *row_shape), dtype=np.int64)
    return rng.standard_normal((rows, *row_shape)).astype(dtype)


geometries = st.fixed_dictionaries(
    {
        "dtype": st.sampled_from(["float64", "float32", "int64"]),
        "row_shape": st.sampled_from([(), (3,), (2, 3)]),
        "rows": st.integers(0, 200),
        "num_shards": st.integers(1, 5),
        # From smaller than any row to larger than any table.
        "page_bytes": st.sampled_from([1, 7, 24, 64, 100, 512, 4096, 1 << 16]),
        "cache_pages": st.sampled_from([1, 2, 64]),
    }
)


def index_arrays(draw, rows):
    """Duplicates, negatives, and 0-/1-/2-D shapes over ``rows`` rows."""
    shape = draw(
        st.sampled_from([(), (0,), (1,), (7,), (40,), (3, 5), (2, 0), (1, 1)])
    )
    size = int(np.prod(shape, dtype=np.int64))
    flat = draw(
        st.lists(st.integers(-rows, rows - 1), min_size=size, max_size=size)
    )
    return np.asarray(flat, dtype=np.int64).reshape(shape)


@st.composite
def gather_cases(draw):
    geometry = draw(geometries)
    rows = geometry["rows"]
    if rows:
        indices = [index_arrays(draw, rows) for _ in range(draw(st.integers(1, 4)))]
    else:
        indices = [np.zeros(shape, dtype=np.int64) for shape in ((0,), (2, 0))]
    return geometry, indices


def build(directory, array, geometry):
    return EmbeddingStore.build(
        directory,
        {"t": array},
        num_shards=geometry["num_shards"],
        page_bytes=geometry["page_bytes"],
        cache_pages=geometry["cache_pages"],
    )


class TestAgainstNumpy:
    @settings(max_examples=80, deadline=None)
    @given(gather_cases())
    def test_reads_equal_the_source_array(self, case):
        geometry, indices = case
        array = make_array(geometry["rows"], geometry["row_shape"], geometry["dtype"])
        with tempfile.TemporaryDirectory() as directory:
            store = build(directory, array, geometry)
            try:
                for index in indices:
                    got = store.read_rows("t", index)
                    want = array[index]
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                full = store.read_table("t")
                assert full.shape == array.shape and full.dtype == array.dtype
                assert full.tobytes() == array.tobytes()
                for row in {0, geometry["rows"] // 2, -1} if geometry["rows"] else ():
                    got = store.read_row("t", row)
                    assert got.shape == array[row].shape
                    assert got.tobytes() == array[row].tobytes()
                assert len(store._cache) <= geometry["cache_pages"]
            finally:
                store.close()


class TestAgainstThePerRowLoop:
    @settings(max_examples=60, deadline=None)
    @given(gather_cases())
    def test_outputs_and_accounting(self, case):
        geometry, indices = case
        array = make_array(geometry["rows"], geometry["row_shape"], geometry["dtype"])
        with tempfile.TemporaryDirectory() as directory:
            build(directory, array, geometry).close()
            grouped = EmbeddingStore.open(
                directory, cache_pages=geometry["cache_pages"]
            )
            per_row = PageLoop(directory, geometry["cache_pages"])
            try:
                for step, index in enumerate(indices):
                    got = grouped.read_rows("t", index)
                    want = reference_read_rows(per_row, "t", index)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    new, old = counters(grouped), counters(per_row)
                    # Accounting is per row, whatever the grouping.
                    assert (
                        new["page_hits"] + new["page_faults"]
                        == old["page_hits"] + old["page_faults"]
                    )
                    if step == 0:
                        # Both caches were empty: a page loaded once per
                        # call can only fault less than one loaded once
                        # per row.  (Across a sequence recency differs —
                        # refreshed per page, not per row — and the
                        # counts may part by a few either way.)
                        assert new["page_faults"] <= old["page_faults"]
                        assert new["bytes_read"] <= old["bytes_read"]
            finally:
                grouped.close()
                per_row.close()


@pytest.fixture()
def damaged(tmp_path):
    """A 2-shard, 40-row table (4 rows per page) with one flipped bit on
    page 1 of shard 0 and one on page 2 of shard 1."""
    array = make_array(40, (4,), "float64", seed=3)
    EmbeddingStore.build(
        tmp_path / "s", {"t": array}, num_shards=2, page_bytes=128
    ).close()
    for shard, page in ((0, 1), (1, 2)):
        path = tmp_path / "s" / shard_filename("t", shard)
        blob = bytearray(path.read_bytes())
        blob[page * 128 + 5] ^= 0x10
        path.write_bytes(bytes(blob))
    return tmp_path / "s", array


class TestQuarantineParity:
    #: Rows 4–7 sit on the bad page (0, 1), rows 28–31 on the bad page
    #: (1, 2); everything else is clean.
    ORDERS = [
        [0, 5, 1],  # clean page first, then a bad one
        [5, 0],  # bad page first
        [0, 1, 2, 3, 8, 9],  # never touches damage
        [0, 29, 5],  # two bad pages: the first in request order wins
        [0, 6, 29, 1],
        [29, 29, 0, 5],
        [[12, 5], [0, 30]],
        [39, 38, 31, 4],
    ]

    @pytest.mark.parametrize("order", ORDERS)
    def test_same_error_same_quarantine(self, damaged, order):
        directory, array = damaged
        grouped = EmbeddingStore.open(directory, cache_pages=8)
        per_row = PageLoop(directory, 8)
        try:
            outcomes = []
            for read in (
                grouped.read_rows,
                lambda name, rows: reference_read_rows(per_row, name, rows),
            ):
                try:
                    outcomes.append(read("t", np.asarray(order)).tobytes())
                except QuarantinedRowError as error:
                    outcomes.append(
                        (error.table, error.row, error.shard, error.page)
                    )
            assert outcomes[0] == outcomes[1]
            assert grouped.quarantined_pages() == per_row.quarantined_pages()
            for name in ("crc_failures", "pages_quarantined", "quarantined_reads"):
                assert (
                    grouped.metrics.snapshot()[f"store.{name}"]
                    == per_row.metrics.snapshot()[f"store.{name}"]
                ), name
        finally:
            grouped.close()
            per_row.close()

    def test_pages_before_the_bad_one_are_cached_and_nothing_after(self, damaged):
        directory, _ = damaged
        store = EmbeddingStore.open(directory, cache_pages=8)
        try:
            with pytest.raises(QuarantinedRowError) as raised:
                store.read_rows("t", np.array([0, 12, 5, 36, 1]))
            assert (raised.value.shard, raised.value.page) == (0, 1)
            assert raised.value.row == 4  # first row of the page
            # Pages (0,0) and (0,3) were first touched before the bad
            # page; (1,4) — row 36 — after it.
            assert set(store._cache) == {("t", 0, 0), ("t", 0, 3)}
            assert store.quarantined_pages() == [("t", 0, 1)]
        finally:
            store.close()

    def test_a_denied_gather_counts_the_distinct_rows_it_wanted(self, damaged):
        directory, _ = damaged
        store = EmbeddingStore.open(directory, cache_pages=8)
        try:
            with pytest.raises(QuarantinedRowError):
                store.read_rows("t", np.array([0, 4, 5, 5, 6, 29]))
            # Rows 4, 5, 6 of the first bad page; 29 was never reached.
            assert store.metrics.snapshot()["store.quarantined_reads"] == 3
            with pytest.raises(QuarantinedRowError):
                store.read_rows("t", np.array([7] * 10))
            assert store.metrics.snapshot()["store.quarantined_reads"] == 4
        finally:
            store.close()

    def test_every_order_of_one_gather_agrees(self, damaged):
        directory, _ = damaged
        for order in itertools.permutations([0, 5, 29, 13]):
            grouped = EmbeddingStore.open(directory, cache_pages=8)
            per_row = PageLoop(directory, 8)
            try:
                with pytest.raises(QuarantinedRowError) as new:
                    grouped.read_rows("t", np.asarray(order))
                with pytest.raises(QuarantinedRowError) as old:
                    reference_read_rows(per_row, "t", np.asarray(order))
                assert (new.value.row, new.value.shard, new.value.page) == (
                    old.value.row,
                    old.value.shard,
                    old.value.page,
                )
                assert grouped.quarantined_pages() == per_row.quarantined_pages()
            finally:
                grouped.close()
                per_row.close()


# ----------------------------------------------------------------------
# The fault loop against the page-at-a-time loop, call after call
# ----------------------------------------------------------------------
REQUEST_SHAPES = [(), (0,), (1,), (2,), (9,), (3, 4), (2, 0), (2, 2, 3), (1, 1, 1)]


@st.composite
def call_sequences(draw):
    """A small damaged store and the calls made on it.

    Pages hold one row or several (page sizes are not row multiples, so
    the slack is real), shards end on short pages, and caches are small
    enough that pages evict mid-call.  Damage is drawn as positions in
    the table's page list: bit flips fail a page's CRC on first read, a
    torn shard loses its last page, quarantined pages are refused
    before any read.
    """
    row_shape = draw(st.sampled_from([(3,), (2, 3)]))
    row_nbytes = 8 * int(np.prod(row_shape))
    rows_per_page = draw(st.sampled_from([1, 2, 3, 5]))
    geometry = {
        "dtype": "float64",
        "row_shape": row_shape,
        "rows": draw(st.integers(1, 60)),
        # Contiguous shards of ceil(rows / num_shards) rows: the last
        # one is shorter (or empty) unless the count divides evenly.
        "num_shards": draw(st.integers(1, 3)),
        "page_bytes": rows_per_page * row_nbytes
        + draw(st.integers(0, row_nbytes - 1)),
        "cache_pages": draw(st.integers(1, 4)),
    }
    rows = geometry["rows"]
    damage = {
        "flips": draw(st.lists(st.integers(0, 999), max_size=3)),
        "quarantined": draw(st.lists(st.integers(0, 999), max_size=2)),
        "torn": draw(st.booleans()),
    }
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["rows", "rows", "rows", "row", "table", "salvage"]))
        if kind == "rows":
            shape = draw(st.sampled_from(REQUEST_SHAPES))
            size = int(np.prod(shape, dtype=np.int64))
            ids = draw(
                st.lists(st.integers(-rows, rows - 1), min_size=size, max_size=size)
            )
            calls.append((kind, np.asarray(ids, dtype=np.int64).reshape(shape)))
        elif kind == "row":
            calls.append((kind, draw(st.integers(-rows, rows - 1))))
        else:
            calls.append((kind, None))
    return geometry, damage, calls


def call(target, kind, argument):
    if kind == "rows":
        return target.read_rows("t", argument)
    if kind == "row":
        return target.read_row("t", argument)
    if kind == "table":
        return target.read_table("t")
    return target.salvage_table("t")


def outcome(target, kind, argument):
    """What one call returned — each array's shape, dtype and bytes — or
    the table, row, shard and page its :class:`QuarantinedRowError` named."""
    try:
        result = call(target, kind, argument)
    except QuarantinedRowError as error:
        return ("denied", error.table, error.row, error.shard, error.page)
    arrays = result if isinstance(result, tuple) else (result,)
    return [(array.shape, array.dtype.str, array.tobytes()) for array in arrays]


def state(target):
    """Counters, the cached-pages gauge, LRU order and the quarantine."""
    snapshot = target.metrics.snapshot()
    cache = target._cache if isinstance(target, EmbeddingStore) else target.lru
    return (
        {name: snapshot[f"store.{name}"] for name in STORE_COUNTERS},
        snapshot["store.cached_pages"],
        list(cache),
        target.quarantined_pages(),
    )


def damage_store(directory, spec, damage):
    keys = list(spec.pages())
    for position in damage["flips"]:
        shard, page = keys[position % len(keys)]
        path = Path(directory) / shard_filename("t", shard)
        blob = bytearray(path.read_bytes())
        blob[spec.page_byte_range(shard, page)[0]] ^= 0x20
        path.write_bytes(bytes(blob))
    if damage["torn"]:
        path = Path(directory) / shard_filename("t", 0)
        path.write_bytes(path.read_bytes()[:-1])
    return [("t", *keys[position % len(keys)]) for position in damage["quarantined"]]


class TestAgainstThePageLoop:
    @settings(max_examples=120, deadline=None)
    @given(call_sequences())
    @example(
        (
            # Two shards of 5 rows, 3 to a page: each ends on a short page.
            {"dtype": "float64", "row_shape": (3,), "rows": 10, "num_shards": 2,
             "page_bytes": 80, "cache_pages": 2},
            {"flips": [1], "quarantined": [2], "torn": False},
            [
                ("rows", np.array([0, -1, 4, 4, 2, 1])),
                ("rows", np.array([[9, 8], [0, 0]])),
                ("salvage", None),
                ("rows", np.array([[[6]], [[3]]])),
                ("row", -10),
                ("table", None),
                ("rows", np.array([1, 4])),
            ],
        )
    )
    @example(
        (
            # One row a page, three uneven shards (3, 3 and 1 rows), a
            # one-page cache.
            {"dtype": "float64", "row_shape": (2, 3), "rows": 7, "num_shards": 3,
             "page_bytes": 48, "cache_pages": 1},
            {"flips": [4], "quarantined": [], "torn": True},
            [
                ("rows", np.array([0, 3, 6, 0, -7, 5])),
                ("rows", np.array([1, 2, 4])),
                ("row", 4),
                ("salvage", None),
                ("rows", np.array([5, 2, 2])),
            ],
        )
    )
    def test_every_call_matches_the_page_loop(self, case):
        geometry, damage, calls = case
        array = make_array(geometry["rows"], geometry["row_shape"], "float64")
        with tempfile.TemporaryDirectory() as directory:
            built = build(directory, array, geometry)
            spec = built.spec("t")
            built.close()
            quarantined = damage_store(directory, spec, damage)
            store = EmbeddingStore.open(directory, cache_pages=geometry["cache_pages"])
            loop = PageLoop(directory, geometry["cache_pages"])
            store.quarantine.update(quarantined)
            loop.quarantine.update(quarantined)
            try:
                for kind, argument in calls:
                    assert outcome(store, kind, argument) == outcome(
                        loop, kind, argument
                    ), kind
                    assert state(store) == state(loop), kind
            finally:
                store.close()
                loop.close()


# ----------------------------------------------------------------------
# The inline page read against ShardReader.read_page, on three kinds of
# damage
# ----------------------------------------------------------------------
#: 4 shards of 10 rows, 3 rows (72 of 80 bytes) to a page, so each shard
#: is pages of 3, 3, 3 and 1 rows.
THREE_DAMAGES = {"rows": 40, "row_shape": (3,), "num_shards": 4, "page_bytes": 80}


@pytest.fixture(scope="module")
def three_damages(tmp_path_factory):
    """Shard 0 has one flipped bit (page 1), shard 1 a torn tail (its last
    page loses a byte), shard 2 no file at all; shard 3 is clean."""
    directory = tmp_path_factory.mktemp("three") / "s"
    array = make_array(THREE_DAMAGES["rows"], THREE_DAMAGES["row_shape"], "float64", 9)
    built = EmbeddingStore.build(
        directory,
        {"t": array},
        num_shards=THREE_DAMAGES["num_shards"],
        page_bytes=THREE_DAMAGES["page_bytes"],
    )
    spec = built.spec("t")
    built.close()
    flipped = directory / shard_filename("t", 0)
    blob = bytearray(flipped.read_bytes())
    blob[spec.page_byte_range(0, 1)[0] + 3] ^= 0x01
    flipped.write_bytes(bytes(blob))
    torn = directory / shard_filename("t", 1)
    torn.write_bytes(torn.read_bytes()[:-1])
    (directory / shard_filename("t", 2)).unlink()
    return directory, array


def every_store_metric(target):
    """Every ``store.*`` counter and gauge; for :class:`PageLoop`, the
    ones it keeps plus the zeros and quarantine size the store reports."""
    snapshot = target.metrics.snapshot()
    if isinstance(target, PageLoop):
        snapshot = {
            **{
                f"store.{name}": 0
                for name in ("scrub_pages", "pages_repaired", "pages_unrepairable")
            },
            **snapshot,
            "store.quarantine_size": len(target.quarantine),
        }
    return {key: value for key, value in snapshot.items() if key.startswith("store.")}


class TestThreeKindsOfDamage:
    def test_the_inline_read_is_read_page_wherever_it_is_offered(self, three_damages):
        directory, _ = three_damages
        store = EmbeddingStore.open(directory)
        try:
            spec = store.spec("t")
            offered = []
            for shard, reader in store._table("t").readers.items():
                mapping, page_nbytes, crcs = reader.view()
                offered.append(mapping is not None)
                for page in range(spec.shard_pages(shard)):
                    expected = reader.read_page(page)
                    if mapping is not None:
                        data = mapping[page * page_nbytes : (page + 1) * page_nbytes]
                        assert (data, zlib.crc32(data) == crcs[page]) == expected
            # Only the torn and the deleted shard fall back to read_page.
            assert offered == [True, False, False, True]
        finally:
            store.close()

    def test_the_fault_loop_reads_what_read_page_reads(self, three_damages):
        directory, _ = three_damages
        store = EmbeddingStore.open(directory, cache_pages=1)
        reference = EmbeddingStore.open(directory)
        try:
            damaged = []
            for key in store.iter_page_keys():
                got = store._pages("t", {key: 1}, tolerant=True)[key]
                data, ok = reference._table("t").readers[key[1]].read_page(key[2])
                assert got == (data if ok else None), key
                if not ok:
                    damaged.append(key[1:])
            # One flipped page, the torn last page, all of the deleted shard.
            assert damaged == [(0, 1), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3)]
        finally:
            store.close()
            reference.close()

    CALLS = [
        [("rows", [0, -1, 39, 30, 30, -10, 2]), ("table", None), ("salvage", None)],
        [("rows", [3, 4, 3]), ("rows", [-30, 0]), ("row", -21), ("salvage", None)],
        [("rows", [[13, 12], [-27, 9]]), ("rows", [20, 0]), ("table", None)],
        [("salvage", None), ("rows", [31, 32, -8, 31]), ("table", None), ("row", 0)],
        [("row", 19), ("rows", [9, 19, 29]), ("rows", [-31, -1, -31]), ("salvage", None)],
    ]

    @pytest.mark.parametrize("cache_pages", [1, 3, 64])
    @pytest.mark.parametrize("calls", CALLS)
    def test_every_call_matches_the_page_at_a_time_walk(
        self, three_damages, calls, cache_pages
    ):
        directory, _ = three_damages
        store = EmbeddingStore.open(directory, cache_pages=cache_pages)
        loop = PageLoop(directory, cache_pages)
        try:
            for kind, argument in calls:
                if kind == "rows":
                    argument = np.asarray(argument, dtype=np.int64)
                assert outcome(store, kind, argument) == outcome(
                    loop, kind, argument
                ), (kind, argument)
                assert state(store) == state(loop), (kind, argument)
                assert every_store_metric(store) == every_store_metric(loop)
        finally:
            store.close()
            loop.close()

    def test_salvage_reads_the_clean_rows_and_zeros_the_rest(self, three_damages):
        directory, array = three_damages
        store = EmbeddingStore.open(directory, cache_pages=2)
        try:
            rows, readable = store.salvage_table("t")
            lost = [3, 4, 5, 19, *range(20, 30)]
            assert np.flatnonzero(~readable).tolist() == lost
            assert np.array_equal(rows[readable], array[readable])
            assert not rows[~readable].any()
        finally:
            store.close()


def count_page_loads(store, monkeypatch):
    """Count page loads per page key from here on: reads from a shard
    file — a page sliced from the mapping the fault loop gets from
    ``ShardReader.view``, or a ``ShardReader.read_page`` — plus refreshes
    of a resident page (a page-cache ``get`` that finds it)."""
    loads = Counter()

    class CountingMapping:
        def __init__(self, mapping, key, page_nbytes):
            self.mapping, self.key, self.page_nbytes = mapping, key, page_nbytes

        def __getitem__(self, span):
            loads[(*self.key, span.start // self.page_nbytes)] += 1
            return self.mapping[span]

    for name in store.table_names():
        for shard, reader in store._table(name).readers.items():

            def view(key=(name, shard), original=reader.view):
                mapping, page_nbytes, crcs = original()
                if mapping is not None:
                    mapping = CountingMapping(mapping, key, page_nbytes)
                return mapping, page_nbytes, crcs

            def read_page(page, key=(name, shard), original=reader.read_page):
                loads[(*key, page)] += 1
                return original(page)

            monkeypatch.setattr(reader, "view", view)
            monkeypatch.setattr(reader, "read_page", read_page)

    class CountingCache(OrderedDict):
        def get(self, key, default=None):
            data = super().get(key, default)
            if data is not None:
                loads[key] += 1
            return data

    monkeypatch.setattr(store, "_cache", CountingCache(store._cache))
    return loads


class TestExactWork:
    def test_one_load_per_distinct_page(self, tmp_path, monkeypatch):
        # The service shape: 64 heads, each repeated k = 10 times.
        heads = np.random.default_rng(5).integers(0, 600, size=64)
        self.check_one_load_per_page(
            tmp_path, monkeypatch, np.repeat(heads[:, None], 10, axis=1)
        )

    def test_a_point_read_loads_each_distinct_page_once(self, tmp_path, monkeypatch):
        # 401 and 402 share a page, 17 repeats, -1 wraps to 599: 8 rows, 5 pages.
        index = np.array([[401, 17], [402, 599], [17, -1], [3, 250]])
        self.check_one_load_per_page(tmp_path, monkeypatch, index)

    def check_one_load_per_page(self, tmp_path, monkeypatch, index):
        """Cold: one load and one fault per distinct page, every other row
        a hit.  Warm: the same gather is all hits, still one load a page."""
        array = make_array(600, (8,), "float64")
        store = EmbeddingStore.build(
            tmp_path / "s",
            {"t": array},
            num_shards=3,
            page_bytes=256,  # 4 rows per page
            cache_pages=256,
        )
        try:
            spec = store.spec("t")
            distinct = {
                (shard, spec.page_of(local))
                for shard, local in (spec.locate(int(row) % 600) for row in index.flat)
            }
            assert len(distinct) < index.size
            loads = count_page_loads(store, monkeypatch)
            before = counters(store)
            got = store.read_rows("t", index)
            assert np.array_equal(got, array[index])
            assert sum(loads.values()) == len(distinct)
            assert set(loads) == {("t", shard, page) for shard, page in distinct}
            after = counters(store)
            assert after["page_faults"] - before["page_faults"] == len(distinct)
            assert (
                after["page_hits"] - before["page_hits"]
                == index.size - len(distinct)
            )
            loads.clear()
            store.read_rows("t", index)
            assert sum(loads.values()) == len(distinct)
            warm = counters(store)
            assert warm["page_faults"] == after["page_faults"]
            assert warm["page_hits"] - after["page_hits"] == index.size
        finally:
            store.close()

    def test_read_table_loads_every_page_once(self, tmp_path, monkeypatch):
        array = make_array(203, (8,), "float64")
        store = EmbeddingStore.build(
            tmp_path / "s",
            {"t": array},
            num_shards=3,
            page_bytes=256,
            cache_pages=1,
        )
        try:
            loads = count_page_loads(store, monkeypatch)
            assert np.array_equal(store.read_table("t"), array)
            assert sorted(loads) == store.iter_page_keys()
            assert set(loads.values()) == {1}
            after = counters(store)
            assert after["page_faults"] == len(loads)
            assert after["page_hits"] + after["page_faults"] == 203
        finally:
            store.close()


# ----------------------------------------------------------------------
# Cold open: the selector tables come through page-sized gathers
# ----------------------------------------------------------------------
ITEMS = 24


@pytest.fixture(scope="module")
def resident():
    triples = [(item, item % 3, 100 + item) for item in range(ITEMS)]
    triples += [(item, (item + 1) % 3, 130 + item) for item in range(ITEMS)]
    selector = KeyRelationSelector(
        TripleStore(triples), {item: item % 4 for item in range(ITEMS)}, k=2
    )
    model = PKGM(160, 3, PKGMConfig(dim=4), rng=np.random.default_rng(0))
    return PKGMServer(model, selector)


def save(resident, directory):
    # 64-byte pages: 8 item ids or 4 key-relation rows to a page.
    resident.save_store(directory, num_shards=2, page_bytes=64).close()
    return directory


def flip(directory, table, shard, offset):
    path = Path(directory) / shard_filename(table, shard)
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x04
    path.write_bytes(bytes(blob))


class TestColdOpen:
    def test_clean_open_knows_every_item(self, tmp_path, resident):
        server = PKGMServer.from_store(save(resident, tmp_path / "s"))
        try:
            assert server.unreadable_items == 0
            assert server.known_items() == resident.known_items()
            items = resident.known_items()
            assert np.array_equal(
                [vectors.key_relations for vectors in server.serve_batch(items)],
                [vectors.key_relations for vectors in resident.serve_batch(items)],
            )
            assert np.array_equal(
                server.serve(5).key_relations, resident.serve(5).key_relations
            )
        finally:
            server.store.close()

    @pytest.mark.parametrize(
        "table, shard, offset, lost",
        [
            # item_ids: 12 rows a shard, 8 a page → page 1 of shard 0 is rows 8–11.
            ("item_ids", 0, 64 + 3, range(8, 12)),
            # key_relations: 4 rows a page → page 2 of shard 1 is rows 20–23.
            ("key_relations", 1, 2 * 64 + 9, range(20, 24)),
            ("key_relations", 0, 1, range(0, 4)),
        ],
    )
    def test_a_bad_selector_page_costs_exactly_its_items(
        self, tmp_path, resident, table, shard, offset, lost
    ):
        directory = save(resident, tmp_path / "s")
        flip(directory, table, shard, offset)
        server = PKGMServer.from_store(directory, cache_pages=3)
        try:
            items = resident.known_items()
            assert server.unreadable_items == len(lost)
            assert server.known_items() == [
                item for row, item in enumerate(items) if row not in lost
            ]
            assert len(server.store.quarantined_pages()) == 1
            assert server.store.quarantined_pages()[0][0] == table
            # Each item lost is one denied row read, as when the cold
            # open asked for them one by one.
            snapshot = server.store.metrics.snapshot()
            assert snapshot["store.quarantined_reads"] == len(lost)
            survivor = server.known_items()[0]
            assert np.array_equal(
                server.serve(survivor).triple_vectors,
                resident.serve(survivor).triple_vectors,
            )
            with pytest.raises(KeyError, match=f"entity {items[lost[0]]} is not"):
                server.serve(items[lost[0]])
        finally:
            server.store.close()

    def test_damage_in_both_tables_is_a_union(self, tmp_path, resident):
        directory = save(resident, tmp_path / "s")
        flip(directory, "item_ids", 0, 3)  # rows 0–7
        flip(directory, "key_relations", 0, 64 + 1)  # rows 4–7
        flip(directory, "key_relations", 1, 1)  # rows 12–15
        server = PKGMServer.from_store(directory)
        try:
            assert server.unreadable_items == 12
            assert server.known_items() == resident.known_items()[8:12] + (
                resident.known_items()[16:]
            )
        finally:
            server.store.close()

    def test_unknown_id_raises_the_same_key_error(self, tmp_path, resident):
        server = PKGMServer.from_store(save(resident, tmp_path / "s"))
        try:
            for lookup in (
                lambda: server.serve_batch([3, 99, 4]),
                lambda: server.serve(99),
                lambda: resident.serve(99),
            ):
                with pytest.raises(KeyError) as raised:
                    lookup()
                assert raised.value.args == ("entity 99 is not a known item",)
            with pytest.raises(KeyError, match="entity -1 is not a known item"):
                server.serve_sequence_batch([-1])
        finally:
            server.store.close()

    def test_cold_open_makes_no_per_row_reads(self, tmp_path, resident, monkeypatch):
        directory = save(resident, tmp_path / "s")
        calls = Counter()
        original = EmbeddingStore.salvage_table

        def counted(self, name):
            calls[name] += 1
            return original(self, name)

        def refuse(*args):
            pytest.fail("the cold open gathered rows")

        monkeypatch.setattr(EmbeddingStore, "salvage_table", counted)
        monkeypatch.setattr(EmbeddingStore, "read_rows", refuse)
        monkeypatch.setattr(EmbeddingStore, "read_row", refuse)
        server = PKGMServer.from_store(directory)
        try:
            # One page walk per table held resident, not one gather per
            # page: the selector tables, the relation table and transfer.
            assert calls == {
                "item_ids": 1,
                "key_relations": 1,
                "relation_table": 1,
                "transfer": 1,
            }
        finally:
            server.store.close()

    def test_save_load_save_is_byte_identical(self, tmp_path, resident):
        first = save(resident, tmp_path / "first")
        server = PKGMServer.from_store(first)
        try:
            second = save(server, tmp_path / "second")
        finally:
            server.store.close()
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_key_relation_range_check_still_closes_the_store(self, tmp_path):
        from repro.core.service import SnapshotError, write_server_store

        write_server_store(
            tmp_path / "s",
            {
                "entity_table": np.zeros((4, 2)),
                "relation_table": np.zeros((3, 2)),
                "transfer": np.zeros((3, 2, 2)),
                "item_ids": np.arange(2, dtype=np.int64),
                "key_relations": np.array([[0], [3]], dtype=np.int64),
            },
        ).close()
        with pytest.raises(SnapshotError, match=r"outside \[0, 3\)"):
            PKGMServer.from_store(tmp_path / "s")
