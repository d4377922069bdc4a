"""On-disk geometry of the embedding store.

A store directory holds one checksummed JSON manifest plus one raw
binary file per (table, shard)::

    <dir>/manifest.json
    <dir>/<table>-<shard:04d>.bin

Each table is a fixed-width row array: row ``r`` of ``entity_table``
is ``dim`` float64 values, row ``r`` of ``transfer`` is a flattened
``dim x dim`` matrix, and so on.  Rows never span shard files, and
pages are *row-aligned*: a page holds ``rows_per_page`` whole rows
(``max(1, page_bytes // row_nbytes)``), so a single CRC failure
quarantines a known row range instead of tearing rows in half.

Rows are sharded contiguously: shard ``s`` holds the dense row range
``[s * per, (s + 1) * per)`` (``per = ceil(rows / num_shards)``), so
scans stay sequential.  Every table's manifest entry says
``"layout": "contiguous"``, and an entry naming any other layout is
refused with :class:`StoreSchemaError`.

The manifest carries a ``checksum`` field: the SHA-256 of its own
canonical JSON with that field removed.  A truncated or bit-flipped
manifest therefore fails closed (:class:`StoreManifestError`) instead
of silently describing the wrong bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

from .errors import StoreManifestError, StoreSchemaError

MANIFEST_NAME = "manifest.json"
STORE_VERSION = 1
DEFAULT_PAGE_BYTES = 4096
#: The one row→shard layout, named in every manifest table entry.
_LAYOUT = "contiguous"

#: Table names become file-name stems, so keep them path-safe.
_TABLE_NAME_RE = re.compile(r"[A-Za-z0-9_.]+\Z")


def shard_filename(table: str, shard: int) -> str:
    """Canonical shard file name for ``(table, shard)``."""
    return f"{table}-{shard:04d}.bin"


@dataclass(frozen=True)
class TableSpec:
    """Schema and shard geometry of one fixed-width table."""

    name: str
    dtype: str
    row_shape: Tuple[int, ...]
    rows: int
    num_shards: int
    page_bytes: int

    def __post_init__(self) -> None:
        if not _TABLE_NAME_RE.match(self.name):
            raise StoreSchemaError(
                f"table name {self.name!r} must match {_TABLE_NAME_RE.pattern}"
            )
        if self.rows < 0:
            raise StoreSchemaError(f"table {self.name!r}: rows must be >= 0")
        if self.num_shards < 1:
            raise StoreSchemaError(f"table {self.name!r}: num_shards must be >= 1")
        if self.page_bytes < 1:
            raise StoreSchemaError(f"table {self.name!r}: page_bytes must be >= 1")
        object.__setattr__(self, "row_shape", tuple(int(d) for d in self.row_shape))

    # -- row geometry ---------------------------------------------------
    # The four derived values the read path divides by are computed once
    # per spec (``cached_property`` fills the instance dict of a frozen
    # dataclass), so a page fault does integer work only.
    @cached_property
    def row_nbytes(self) -> int:
        """Bytes per row (dtype itemsize times the row element count)."""
        return int(np.dtype(self.dtype).itemsize * self.row_elems)

    @cached_property
    def row_elems(self) -> int:
        count = 1
        for dim in self.row_shape:
            count *= dim
        return count

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.rows, *self.row_shape)

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_nbytes

    @cached_property
    def rows_per_page(self) -> int:
        """Whole rows per page — at least one, even for oversized rows."""
        return max(1, self.page_bytes // max(self.row_nbytes, 1))

    # -- shard geometry -------------------------------------------------
    @cached_property
    def rows_per_contiguous_shard(self) -> int:
        return -(-self.rows // self.num_shards) if self.rows else 0

    def shard_rows(self, shard: int) -> int:
        """Local row count of one shard."""
        self._check_shard(shard)
        per = self.rows_per_contiguous_shard
        return max(0, min(self.rows, (shard + 1) * per) - shard * per)

    def shard_nbytes(self, shard: int) -> int:
        return self.shard_rows(shard) * self.row_nbytes

    def shard_pages(self, shard: int) -> int:
        rows = self.shard_rows(shard)
        return -(-rows // self.rows_per_page) if rows else 0

    def pages(self) -> Iterator[Tuple[int, int]]:
        """Every ``(shard, page)`` of the table, in file order."""
        for shard in range(self.num_shards):
            for page in range(self.shard_pages(shard)):
                yield shard, page

    def locate(self, row: int) -> Tuple[int, int]:
        """Global row → ``(shard, local_row)``."""
        if not 0 <= row < self.rows:
            raise IndexError(
                f"row {row} out of range for table {self.name!r} "
                f"({self.rows} rows)"
            )
        per = self.rows_per_contiguous_shard
        return row // per, row % per

    def global_row(self, shard: int, local_row: int) -> int:
        """``(shard, local_row)`` → global row (inverse of :meth:`locate`)."""
        self._check_shard(shard)
        return shard * self.rows_per_contiguous_shard + local_row

    def page_of(self, local_row: int) -> int:
        return local_row // self.rows_per_page

    def page_rows(self, shard: int, page: int) -> Tuple[int, int]:
        """Local ``[start, stop)`` row range covered by one page."""
        start = page * self.rows_per_page
        stop = min(self.shard_rows(shard), start + self.rows_per_page)
        return start, stop

    def page_global_rows(self, shard: int, page: int) -> range:
        """Global row ids held by one page, in local-row order."""
        start, stop = self.page_rows(shard, page)
        first = self.global_row(shard, start)
        return range(first, first + stop - start)

    def page_byte_range(self, shard: int, page: int) -> Tuple[int, int]:
        """Byte ``[start, stop)`` range of one page inside its shard file."""
        start, stop = self.page_rows(shard, page)
        return start * self.row_nbytes, stop * self.row_nbytes

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise IndexError(
                f"shard {shard} out of range for table {self.name!r} "
                f"({self.num_shards} shards)"
            )

    # -- (de)serialization ----------------------------------------------
    def to_manifest(self) -> Dict:
        return {
            "dtype": self.dtype,
            "row_shape": list(self.row_shape),
            "rows": self.rows,
            "num_shards": self.num_shards,
            "layout": _LAYOUT,
            "page_bytes": self.page_bytes,
        }

    @classmethod
    def from_manifest(cls, name: str, doc: Mapping) -> "TableSpec":
        try:
            layout = doc["layout"]
            spec = cls(
                name=name,
                dtype=str(doc["dtype"]),
                row_shape=tuple(doc["row_shape"]),
                rows=int(doc["rows"]),
                num_shards=int(doc["num_shards"]),
                page_bytes=int(doc["page_bytes"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreSchemaError(
                f"table {name!r}: malformed manifest entry ({error})"
            ) from error
        if layout != _LAYOUT:
            raise StoreSchemaError(
                f"table {name!r}: layout must be {_LAYOUT!r}, got {layout!r}"
            )
        return spec


# ----------------------------------------------------------------------
# Manifest self-checksum
# ----------------------------------------------------------------------
def canonical_json(document: Mapping) -> bytes:
    """Key-sorted, whitespace-free JSON bytes — the checksum input."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def manifest_checksum(document: Mapping) -> str:
    """SHA-256 of the manifest with its ``checksum`` field removed."""
    body = {key: value for key, value in document.items() if key != "checksum"}
    return hashlib.sha256(canonical_json(body)).hexdigest()


def seal_manifest(document: Dict) -> Dict:
    """Return ``document`` with a fresh self-``checksum`` embedded."""
    sealed = dict(document)
    sealed["checksum"] = manifest_checksum(document)
    return sealed


def parse_manifest(payload: bytes) -> Dict:
    """Parse and self-verify manifest bytes; fail closed on any damage."""
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StoreManifestError(f"unreadable store manifest: {error}") from error
    if not isinstance(document, dict):
        raise StoreManifestError("store manifest is not a JSON object")
    declared = document.get("checksum")
    actual = manifest_checksum(document)
    if declared != actual:
        raise StoreManifestError(
            f"store manifest failed its self-checksum: declared "
            f"{declared!r}, recomputed {actual!r}"
        )
    version = document.get("version")
    if version != STORE_VERSION:
        raise StoreManifestError(
            f"unsupported store version {version!r} (expected {STORE_VERSION})"
        )
    return document


def specs_from_manifest(document: Mapping) -> Dict[str, TableSpec]:
    """Every :class:`TableSpec` in a parsed manifest, keyed by name."""
    tables = document.get("tables")
    if not isinstance(tables, dict):
        raise StoreManifestError("store manifest has no 'tables' object")
    return {
        name: TableSpec.from_manifest(name, entry)
        for name, entry in sorted(tables.items())
    }
