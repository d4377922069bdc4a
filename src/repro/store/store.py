"""The out-of-core embedding store engine.

:class:`EmbeddingStore` turns a directory of checksummed, fixed-width
shard files into a row-addressable table service:

* **build** — arrays land shard-by-shard through the atomic
  ``tmp → fsync → rename`` path, then a self-checksummed manifest is
  written strictly last; a crash anywhere leaves either the previous
  store or no manifest, never a half-described one;
* **open** — parses and self-verifies the manifest only; shard files
  are mmap'd lazily, so cold-start cost is O(manifest), not O(catalog);
* **read** — rows are gathered through a bounded LRU page cache (an
  ``OrderedDict`` in recency order, coldest first); pages
  are CRC-verified on first fault, and a failed page joins the
  quarantine set instead of crashing the reader — subsequent touches
  raise :class:`QuarantinedRowError`, which the serving gateway
  answers degraded (reason ``"quarantined"``);
* **scrub / verify** — an eager sweep over every page, quarantining
  (or just reporting) damage;
* **repair** — quarantined pages are rebuilt byte-exactly from a
  sibling replica store (or a store built from the last good
  checkpoint), re-verified against *this* manifest's CRCs, and
  rewritten atomically.

Every counter lives under ``store.*`` in a
:class:`repro.obs.metrics.MetricsRegistry`, and nothing here touches
the wall clock or an unseeded RNG — two identical call sequences
produce byte-identical metrics, which the storage-chaos gate diffs.
"""

from __future__ import annotations

import operator
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..reliability.checkpoint import atomic_write_bytes
from .errors import QuarantinedRowError, StoreManifestError, StoreSchemaError
from .layout import (
    DEFAULT_PAGE_BYTES,
    MANIFEST_NAME,
    STORE_VERSION,
    TableSpec,
    parse_manifest,
    seal_manifest,
    canonical_json,
    shard_filename,
    specs_from_manifest,
)
from .shard import ShardInfo, ShardReader, StreamingShardWriter

#: ``(table, shard, page)`` — the quarantine / cache addressing unit.
PageKey = Tuple[str, int, int]


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of one :meth:`EmbeddingStore.scrub` / ``verify`` sweep."""

    pages_scanned: int
    pages_bad: int
    bad_pages: Tuple[PageKey, ...]

    @property
    def clean(self) -> bool:
        return self.pages_bad == 0

    def as_row(self) -> str:
        return (
            f"scrub: {self.pages_scanned} pages scanned | "
            f"{self.pages_bad} bad | "
            f"quarantined {list(self.bad_pages)}"
        )


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one :meth:`EmbeddingStore.repair` pass."""

    pages_repaired: int
    pages_unrepairable: int
    repaired: Tuple[PageKey, ...]
    unrepairable: Tuple[PageKey, ...]

    @property
    def complete(self) -> bool:
        return self.pages_unrepairable == 0

    def as_row(self) -> str:
        return (
            f"repair: {self.pages_repaired} pages repaired | "
            f"{self.pages_unrepairable} unrepairable | "
            f"fixed {list(self.repaired)}"
        )


@dataclass
class _Table:
    """Runtime state of one table: spec, shard records, readers."""

    spec: TableSpec
    shards: List[ShardInfo]
    readers: Dict[int, ShardReader] = field(default_factory=dict)


@dataclass(frozen=True)
class RowSource:
    """Declared geometry plus a row-chunk iterator for a streamed build.

    ``chunks`` is a zero-argument callable returning an iterable of 2-D+
    row blocks (``(n, *row_shape)``, dtype exactly ``dtype``) that
    concatenate to the full table.  A callable — not a bare iterator —
    so a failed build can be retried and so sources stay reusable;
    chunk sizing is the producer's RAM knob and never changes the bytes
    on disk.
    """

    dtype: str
    row_shape: Tuple[int, ...]
    rows: int
    chunks: "object"  # Callable[[], Iterable[np.ndarray]]

    @classmethod
    def from_array(cls, array: np.ndarray, chunk_rows: int = 0) -> "RowSource":
        """Wrap an in-RAM array (optionally re-chunked for tests)."""
        if np.ndim(array) < 1:  # before ascontiguousarray, which promotes scalars
            raise StoreSchemaError("a row source must be at least 1-D")
        array = np.ascontiguousarray(array)
        step = chunk_rows if chunk_rows > 0 else max(1, int(array.shape[0]))

        def _chunks() -> List[np.ndarray]:
            return [
                array[start : start + step]
                for start in range(0, array.shape[0], step)
            ]

        return cls(
            dtype=str(array.dtype),
            row_shape=tuple(int(d) for d in array.shape[1:]),
            rows=int(array.shape[0]),
            chunks=_chunks,
        )


class EmbeddingStore:
    """Checksummed, mmap-backed, quarantine-aware embedding tables."""

    def __init__(
        self,
        directory: Union[str, Path],
        tables: Dict[str, _Table],
        metadata: Dict,
        page_bytes: int,
        cache_pages: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = Path(directory)
        self._tables = tables
        self.metadata = metadata
        self.page_bytes = page_bytes
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._cache: "OrderedDict[PageKey, bytes]" = OrderedDict()
        self._cache_pages = max(1, cache_pages)
        self.quarantine: set = set()
        self._hits_c = self.metrics.counter(
            "store.page_hits", help="Page-cache hits"
        )
        self._faults_c = self.metrics.counter(
            "store.page_faults", help="Pages faulted in from disk"
        )
        self._evictions_c = self.metrics.counter(
            "store.page_evictions", help="Page-cache evictions"
        )
        self._crc_failures_c = self.metrics.counter(
            "store.crc_failures", help="Pages that failed CRC verification"
        )
        self._quarantined_c = self.metrics.counter(
            "store.pages_quarantined", help="Pages placed in quarantine"
        )
        self._quarantined_reads_c = self.metrics.counter(
            "store.quarantined_reads", help="Row reads denied by quarantine"
        )
        self._scrub_pages_c = self.metrics.counter(
            "store.scrub_pages", help="Pages scanned by scrub/verify"
        )
        self._repaired_c = self.metrics.counter(
            "store.pages_repaired", help="Quarantined pages rebuilt"
        )
        self._unrepairable_c = self.metrics.counter(
            "store.pages_unrepairable", help="Quarantined pages with no good source"
        )
        self._bytes_read_c = self.metrics.counter(
            "store.bytes_read", help="Payload bytes faulted in from disk"
        )
        self._quarantine_g = self.metrics.gauge(
            "store.quarantine_size", help="Pages currently quarantined"
        )
        self._cache_g = self.metrics.gauge(
            "store.cached_pages", help="Pages resident in the LRU cache"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        directory: Union[str, Path],
        arrays: Mapping[str, np.ndarray],
        *,
        num_shards: int = 1,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        metadata: Optional[Mapping] = None,
        cache_pages: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> "EmbeddingStore":
        """Write a store for in-RAM ``arrays`` and return it opened.

        :meth:`build_from_rows` over :meth:`RowSource.from_array` — one
        write path, so same arrays, same parameters → byte-identical
        files however the rows were chunked (the chaos gate diffs them
        across runs).
        """
        return cls.build_from_rows(
            directory,
            {name: RowSource.from_array(array) for name, array in arrays.items()},
            num_shards=num_shards,
            page_bytes=page_bytes,
            metadata=metadata,
            cache_pages=cache_pages,
            registry=registry,
        )

    @classmethod
    def build_from_rows(
        cls,
        directory: Union[str, Path],
        sources: Mapping[str, "RowSource"],
        *,
        num_shards: int = 1,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        metadata: Optional[Mapping] = None,
        cache_pages: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> "EmbeddingStore":
        """Write a store from row iterators and return it opened —
        bounded by chunk size, not table size.

        Each table streams through one pass of its source: chunks are
        split at shard boundaries into per-shard
        :class:`StreamingShardWriter`\\ s, so peak memory is one chunk
        plus one partial page per shard, and chunk sizes never change the bytes
        on disk — the storage-chaos gate relies on it.  Shard payloads
        land first (each atomically), the sealed manifest strictly
        last — the checkpoint discipline, so a crash mid-build leaves
        no manifest and the directory reads as "no store" rather than
        a torn one.  Dtype, row shape, and row count are enforced
        against the declared geometry; any mismatch aborts every open
        temp file and leaves no manifest.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if not sources:
            raise StoreSchemaError("a store needs at least one table")
        tables: Dict[str, _Table] = {}
        manifest_tables: Dict[str, dict] = {}
        for name in sorted(sources):
            source = sources[name]
            spec = TableSpec(
                name=name,
                dtype=str(source.dtype),
                row_shape=tuple(int(d) for d in source.row_shape),
                rows=int(source.rows),
                num_shards=num_shards,
                page_bytes=page_bytes,
            )
            infos = cls._stream_table(directory, spec, source)
            entry = spec.to_manifest()
            entry["shards"] = [info.to_manifest() for info in infos]
            manifest_tables[name] = entry
            tables[name] = _Table(spec=spec, shards=infos)
        document = seal_manifest(
            {
                "version": STORE_VERSION,
                "page_bytes": page_bytes,
                "metadata": dict(metadata) if metadata is not None else {},
                "tables": manifest_tables,
            }
        )
        atomic_write_bytes(
            directory / MANIFEST_NAME,
            canonical_json(document),
        )
        store = cls(
            directory,
            tables,
            document["metadata"],
            page_bytes,
            cache_pages=cache_pages,
            registry=registry,
        )
        store._attach_readers()
        return store

    @staticmethod
    def _stream_table(
        directory: Path,
        spec: TableSpec,
        source: "RowSource",
    ) -> List[ShardInfo]:
        """One streaming pass of ``source`` into per-shard writers."""
        page_nbytes = spec.rows_per_page * spec.row_nbytes
        dtype = np.dtype(spec.dtype)
        writers = [
            StreamingShardWriter(
                directory, shard_filename(spec.name, shard), page_nbytes
            )
            for shard in range(spec.num_shards)
        ]
        per = spec.rows_per_contiguous_shard
        offset = 0
        try:
            for chunk in source.chunks():
                chunk = np.ascontiguousarray(chunk)
                if chunk.dtype != dtype:
                    raise StoreSchemaError(
                        f"table {spec.name!r}: chunk dtype {chunk.dtype} "
                        f"!= declared {dtype}"
                    )
                if tuple(chunk.shape[1:]) != spec.row_shape:
                    raise StoreSchemaError(
                        f"table {spec.name!r}: chunk row shape "
                        f"{tuple(chunk.shape[1:])} != declared {spec.row_shape}"
                    )
                n = int(chunk.shape[0])
                if offset + n > spec.rows:
                    raise StoreSchemaError(
                        f"table {spec.name!r}: source yielded more than the "
                        f"declared {spec.rows} rows"
                    )
                start = 0
                while start < n:
                    shard = (offset + start) // per
                    stop = min(n, (shard + 1) * per - offset)
                    writers[shard].write(
                        np.ascontiguousarray(chunk[start:stop]).tobytes()
                    )
                    start = stop
                offset += n
            if offset != spec.rows:
                raise StoreSchemaError(
                    f"table {spec.name!r}: source yielded {offset} rows, "
                    f"declared {spec.rows}"
                )
        except BaseException:
            for writer in writers:
                writer.abort()
            raise
        return [writer.finish() for writer in writers]

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        cache_pages: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> "EmbeddingStore":
        """Open an existing store, verifying only the manifest.

        Shard bytes are *not* touched here: page CRCs verify lazily on
        first fault, so a server cold-starts on a catalog far larger
        than its page-cache budget.  A damaged manifest fails closed
        with :class:`StoreManifestError`.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreManifestError(
                f"no store manifest under {directory} (a store is a "
                f"directory of shard files plus {MANIFEST_NAME})"
            )
        document = parse_manifest(manifest_path.read_bytes())
        specs = specs_from_manifest(document)
        tables: Dict[str, _Table] = {}
        for name, spec in specs.items():
            entries = document["tables"][name].get("shards")
            if not isinstance(entries, list) or len(entries) != spec.num_shards:
                raise StoreManifestError(
                    f"table {name!r}: manifest lists "
                    f"{0 if not isinstance(entries, list) else len(entries)} "
                    f"shards, spec says {spec.num_shards}"
                )
            try:
                infos = [ShardInfo.from_manifest(entry) for entry in entries]
            except (KeyError, TypeError, ValueError) as error:
                raise StoreManifestError(
                    f"table {name!r}: malformed shard entry ({error})"
                ) from error
            tables[name] = _Table(spec=spec, shards=infos)
        store = cls(
            directory,
            tables,
            document.get("metadata", {}),
            int(document.get("page_bytes", DEFAULT_PAGE_BYTES)),
            cache_pages=cache_pages,
            registry=registry,
        )
        store._attach_readers()
        return store

    def _attach_readers(self) -> None:
        for name, table in self._tables.items():
            table.readers = {
                shard: ShardReader(
                    self.directory / info.file, table.spec, shard, info
                )
                for shard, info in enumerate(table.shards)
            }

    def close(self) -> None:
        """Release every mmap (tests and repair re-open as needed)."""
        for table in self._tables.values():
            for reader in table.readers.values():
                reader.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def spec(self, name: str) -> TableSpec:
        return self._table(name).spec

    def _table(self, name: str) -> _Table:
        if name not in self._tables:
            raise StoreSchemaError(f"store has no table {name!r}")
        return self._tables[name]

    @property
    def nbytes(self) -> int:
        """Total payload bytes across every table."""
        return sum(t.spec.nbytes for t in self._tables.values())

    def quarantined_pages(self) -> List[PageKey]:
        """The quarantine set, sorted for deterministic reports."""
        return sorted(self.quarantine)

    def quarantined_rows(self, name: str) -> List[int]:
        """Global row ids of ``name`` currently unreadable, ascending."""
        table = self._table(name)
        rows: List[int] = []
        for key_name, shard, page in self.quarantine:
            if key_name != name:
                continue
            rows.extend(table.spec.page_global_rows(shard, page))
        return sorted(rows)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _pages(
        self, name: str, wanted: Dict[PageKey, int], *, tolerant: bool = False
    ) -> Dict[PageKey, Optional[bytes]]:
        """The one fault loop: each page of table ``name`` in ``wanted``,
        in order, through the quarantine set, the LRU and the CRC check;
        returns each page's bytes by key.

        ``wanted`` maps each page to the row reads the caller makes from
        it: a resident page charges them all as hits, a faulted one a
        fault and the rest as hits.  A fault is sliced from its shard's
        :meth:`ShardReader.view` (resolved once a call) and CRC-checked
        inline; without a view, or failing the CRC, it is left to
        :meth:`ShardReader.read_page`.  A damaged page — quarantined
        already, or failing its CRC now and quarantined — counts one
        denied read, then raises :class:`QuarantinedRowError` naming its
        first row or, when ``tolerant``, maps to ``None``.  Hits, faults,
        bytes and evictions are charged once, when the walk ends or
        raises, with the totals a page-at-a-time walk reaches;
        ``store.cached_pages`` is set if a page was inserted.
        """
        readers = self._tables[name].readers
        cache, quarantine, capacity = self._cache, self.quarantine, self._cache_pages
        crc32, views = zlib.crc32, {}
        got: Dict[PageKey, Optional[bytes]] = {}
        hits = faults = nbytes = evicted = 0
        resident: Optional[int] = None
        try:
            for key, reads in wanted.items():
                if key not in quarantine:
                    data = cache.get(key)
                    if data is not None:
                        cache.move_to_end(key)
                        hits += reads
                        got[key] = data
                        continue
                    _, shard, page = key
                    if shard not in views:
                        views[shard] = readers[shard].view()
                    mapping, step, crcs = views[shard]
                    data = mapping and mapping[page * step : page * step + step]
                    ok = data is not None and crc32(data) == crcs[page]
                    if not ok:
                        data, ok = readers[shard].read_page(page)
                    faults += 1
                    nbytes += len(data)
                    if ok:
                        hits += reads - 1
                        cache[key] = got[key] = data
                        if len(cache) > capacity:
                            cache.popitem(last=False)
                            evicted += 1
                        resident = len(cache)
                        continue
                    self._crc_failures_c.inc()
                    self._quarantine_page(key)
                denied = self._denied(key)
                if not tolerant:
                    raise denied
                got[key] = None
        finally:
            if hits:
                self._hits_c.inc(hits)
            if faults:
                self._faults_c.inc(faults)
                self._bytes_read_c.inc(nbytes)
            if evicted:
                self._evictions_c.inc(evicted)
            if resident is not None:
                self._cache_g.set(resident)
        return got

    def _denied(self, key: PageKey) -> QuarantinedRowError:
        """Count one read refused by quarantine; the error names the
        first row of the page."""
        name, shard, page = key
        spec = self._tables[name].spec
        self._quarantined_reads_c.inc()
        return QuarantinedRowError(
            name, spec.global_row(shard, page * spec.rows_per_page), shard, page
        )

    def _quarantine_page(self, key: PageKey) -> None:
        if key not in self.quarantine:
            self.quarantine.add(key)
            self._quarantined_c.inc()
            self._quarantine_g.set(len(self.quarantine))
        self._cache.pop(key, None)

    def _gather(self, spec: TableSpec, rows: List[int]) -> np.ndarray:
        """``rows`` (Python ints, negatives wrap) as a fresh, writable flat
        array.  Each row maps to (shard, page, slot) by ``divmod``, the
        distinct pages go through the fault loop once each in first-touch
        order, and the rows leave their pages in one join of row slices."""
        name, total, per_shard = spec.name, spec.rows, spec.rows_per_contiguous_shard
        per_page, width = spec.rows_per_page, spec.row_nbytes
        # Rows wanted per page, first touch first; and per row, its page
        # and byte offset there.
        reads: Dict[PageKey, int] = {}
        spans: List[Tuple[PageKey, int]] = []
        for row in rows:
            if not -total <= row < total:
                raise IndexError(
                    f"row {row} out of range for table {name!r} "
                    f"({total} rows)"
                )
            shard, local = divmod(row + total if row < 0 else row, per_shard)
            page, slot = divmod(local, per_page)
            key = (name, shard, page)
            reads[key] = reads.get(key, 0) + 1
            spans.append((key, slot * width))
        try:
            data = self._pages(name, reads)
        except QuarantinedRowError as error:
            # Denials are per row like hits: the loop counted one, the
            # rest are the other rows the caller goes without (a row
            # asked for twice is one row).
            denied = (name, error.shard, error.page)
            self._quarantined_reads_c.inc(
                len({offset for key, offset in spans if key == denied}) - 1
            )
            raise
        joined = bytearray().join(
            [data[key][offset : offset + width] for key, offset in spans]
        )
        return np.frombuffer(joined, dtype=spec.dtype)

    def read_row(self, name: str, row: int) -> np.ndarray:
        """One row as a fresh array of the table's row shape."""
        spec = self._table(name).spec
        if isinstance(row, (bool, np.bool_)):
            raise TypeError("boolean masks are not supported by the store")
        return self._gather(spec, [operator.index(row)]).reshape(spec.row_shape)

    def read_rows(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Gather ``rows`` (any integer shape) → ``rows.shape + row_shape``.

        One fault loop per call: the request is grouped by page with
        Python ints, the distinct pages are walked once each in the order
        the request first touches them, and every row leaves their bytes
        in one copy.  The counters are charged once per call, with the
        totals of one read per row (a page's first read a hit or a fault,
        the rest hits).  Damage surfaces per request: the first
        quarantined page in request order raises
        :class:`QuarantinedRowError` naming a row on it, with the pages
        before it read (and cached) and nothing after it touched;
        ``store.quarantined_reads`` advances by the distinct rows the
        request wanted from that page.
        """
        spec = self._table(name).spec
        index = np.asarray(rows)
        if index.dtype == np.bool_:
            raise TypeError("boolean masks are not supported by the store")
        shape = index.shape + spec.row_shape
        if not index.size:
            return np.empty(shape, dtype=spec.dtype)
        if index.dtype.kind not in "iu":
            raise IndexError(
                "arrays used as indices must be of integer (or boolean) type"
            )
        return self._gather(spec, index.reshape(-1).tolist()).reshape(shape)

    def read_table(self, name: str) -> np.ndarray:
        """Materialize a whole table (through the page cache).

        One walk of the table's pages in file order through the same
        fault loop as :meth:`read_rows`, fed a cache's worth of pages
        per call: each page lands in the output as one row slice — no
        index array, no sort — and is loaded exactly once whatever the
        cache budget.  Beyond the output, nothing but one call's pages
        is held: at most ``cache_pages`` pages besides the cache itself.
        The first damaged page raises :class:`QuarantinedRowError`.
        """
        rows, _ = self._walk_table(name, tolerant=False)
        return rows

    def salvage_table(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`read_table`, tolerating damage: ``(rows, readable)``.

        The same walk, but a damaged page is reported, not raised: its
        rows read as zeros, are marked ``False`` in ``readable`` and
        count as denied reads, one per row, and the walk goes on.
        """
        return self._walk_table(name, tolerant=True)

    def _walk_table(
        self, name: str, *, tolerant: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        spec = self._table(name).spec
        out = np.empty((spec.rows, spec.row_elems), dtype=spec.dtype)
        readable = np.ones(spec.rows, dtype=bool)
        held = {(name, s, p): spec.page_global_rows(s, p) for s, p in spec.pages()}
        keys, step = list(held), self._cache_pages
        for start in range(0, len(keys), step):
            chunk = {key: len(held[key]) for key in keys[start : start + step]}
            for key, data in self._pages(name, chunk, tolerant=tolerant).items():
                rows = held[key]
                on_page = slice(rows.start, rows.stop)
                if data is None:
                    out[on_page] = 0
                    readable[on_page] = False
                    self._quarantined_reads_c.inc(len(rows) - 1)
                else:
                    out[on_page] = np.frombuffer(data, dtype=spec.dtype).reshape(
                        -1, spec.row_elems
                    )
        return out.reshape(spec.shape), readable

    # ------------------------------------------------------------------
    # Scrub / verify
    # ------------------------------------------------------------------
    def iter_page_keys(self) -> List[PageKey]:
        """Every ``(table, shard, page)`` key, in sweep order.

        The one enumeration behind the eager sweeps below and the worker
        pool's idle sweep (:meth:`repro.serving.Supervisor.tick`), which
        checks a few of these pages per idle tick.
        """
        return [
            (name, shard, page)
            for name in self.table_names()
            for shard, page in self._tables[name].spec.pages()
        ]

    def check_page(self, key: PageKey, *, quarantine: bool = True) -> bool:
        """CRC-verify one page without touching the row-read path.

        Reads go through the shard reader directly — never the fault
        loop — so a sweep neither pollutes the LRU page cache nor shows
        up in the foreground hit/fault counters.  Every call counts one
        ``store.scrub_pages``.  An already-quarantined page reports
        ``False`` without a read, so a later pass counts no second CRC
        failure or quarantine; a fresh CRC failure counts one
        ``store.crc_failures`` and, when ``quarantine`` is set, one
        ``store.pages_quarantined``.
        """
        name, shard, page = key
        table = self._table(name)
        self._scrub_pages_c.inc()
        if key in self.quarantine:
            return False
        _, ok = table.readers[shard].read_page(page)
        if not ok:
            self._crc_failures_c.inc()
            if quarantine:
                self._quarantine_page(key)
        return bool(ok)

    def _sweep(self, quarantine: bool) -> ScrubReport:
        scanned, bad = 0, []
        for key in self.iter_page_keys():
            scanned += 1
            if not self.check_page(key, quarantine=quarantine):
                bad.append(key)
        return ScrubReport(
            pages_scanned=scanned,
            pages_bad=len(bad),
            bad_pages=tuple(sorted(bad)),
        )

    def scrub(self) -> ScrubReport:
        """Eagerly verify every page, quarantining the damaged ones."""
        return self._sweep(quarantine=True)

    def verify(self) -> ScrubReport:
        """Report-only :meth:`scrub`: nothing is quarantined."""
        return self._sweep(quarantine=False)

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair(self, replica: "EmbeddingStore") -> RepairReport:
        """Rebuild quarantined pages from a sibling replica store.

        ``replica`` is any store holding the same tables — a mirrored
        build, or one reconstructed from the last good checkpoint.
        Donor pages are verified against the *replica's* manifest CRC
        first and against *this* manifest's CRC after patching, so a
        corrupt donor can never be stitched in.  Patched shard files are
        rewritten atomically; a fully repaired shard is byte-identical
        to the original build.
        """
        repaired: List[PageKey] = []
        unrepairable: List[PageKey] = []
        by_shard: Dict[Tuple[str, int], List[int]] = {}
        for name, shard, page in sorted(self.quarantine):
            by_shard.setdefault((name, shard), []).append(page)
        for (name, shard), pages in sorted(by_shard.items()):
            table = self._tables[name]
            spec = table.spec
            info = table.shards[shard]
            try:
                donor_table = replica._table(name)
            except StoreSchemaError:
                unrepairable.extend((name, shard, page) for page in pages)
                continue
            if donor_table.spec != spec:
                unrepairable.extend((name, shard, page) for page in pages)
                continue
            current = bytearray(table.readers[shard].raw_bytes())
            if len(current) < info.nbytes:  # torn write: restore length
                current.extend(b"\x00" * (info.nbytes - len(current)))
            patched: List[int] = []
            for page in pages:
                donor, ok = donor_table.readers[shard].read_page(page)
                start, stop = spec.page_byte_range(shard, page)
                if not ok or len(donor) != stop - start:
                    unrepairable.append((name, shard, page))
                    continue
                if zlib.crc32(donor) != info.page_crcs[page]:
                    # Donor disagrees with OUR manifest — wrong replica.
                    unrepairable.append((name, shard, page))
                    continue
                current[start:stop] = donor
                patched.append(page)
            if not patched:
                continue
            table.readers[shard].close()
            atomic_write_bytes(self.directory / info.file, bytes(current))
            for page in patched:
                key: PageKey = (name, shard, page)
                self.quarantine.discard(key)
                self._cache.pop(key, None)
                repaired.append(key)
        if repaired:
            self._repaired_c.inc(len(repaired))
            self._quarantine_g.set(len(self.quarantine))
        if unrepairable:
            self._unrepairable_c.inc(len(unrepairable))
        return RepairReport(
            pages_repaired=len(repaired),
            pages_unrepairable=len(unrepairable),
            repaired=tuple(sorted(repaired)),
            unrepairable=tuple(sorted(unrepairable)),
        )

    # ------------------------------------------------------------------
    # Manifest recovery
    # ------------------------------------------------------------------
    @staticmethod
    def restore_manifest(
        directory: Union[str, Path], replica_directory: Union[str, Path]
    ) -> Path:
        """Atomically re-copy a validated manifest from a replica.

        The recovery path for a truncated / corrupted manifest: shard
        payloads may be fine, but nothing can be trusted without a
        manifest, so the replica's (self-verified first) is installed
        and a subsequent :meth:`open` + :meth:`scrub` decides which
        pages actually need repair.
        """
        source = Path(replica_directory) / MANIFEST_NAME
        if not source.exists():
            raise StoreManifestError(
                f"replica has no manifest under {replica_directory}"
            )
        payload = source.read_bytes()
        parse_manifest(payload)  # fail closed on a damaged donor
        target = Path(directory) / MANIFEST_NAME
        atomic_write_bytes(target, payload)
        return target
