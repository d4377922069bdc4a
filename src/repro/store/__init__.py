"""``repro.store``: crash-safe out-of-core embedding storage.

The serving tables of a billion-scale PKGM do not fit in RAM on one
box.  This package stores them as fixed-width binary shard files under
a self-checksummed manifest, reads them through an mmap + LRU page
cache with lazy per-page CRC verification, quarantines damaged pages
instead of crashing, and repairs them byte-exactly from a replica —
the storage layer beneath :class:`repro.core.PKGMServer` cold starts,
index and stream snapshots, and the gateway's ``quarantined``
degraded answers.

Import order note: ``.errors`` must come first — it is dependency-free
and is what :mod:`repro.reliability.gateway` and
:mod:`repro.serving.worker` import from us, keeping the store ↔
reliability relationship acyclic.
"""

from .errors import (
    QuarantinedRowError,
    StoreError,
    StoreManifestError,
    StoreSchemaError,
)
from .layout import (
    DEFAULT_PAGE_BYTES,
    MANIFEST_NAME,
    STORE_VERSION,
    TableSpec,
    manifest_checksum,
    parse_manifest,
    seal_manifest,
    shard_filename,
)
from .shard import (
    ShardInfo,
    ShardReader,
    StreamingShardWriter,
    page_crc32s,
)
from .store import EmbeddingStore, RepairReport, RowSource, ScrubReport
from .table import StoreTable

__all__ = [
    "DEFAULT_PAGE_BYTES",
    "EmbeddingStore",
    "MANIFEST_NAME",
    "QuarantinedRowError",
    "RepairReport",
    "RowSource",
    "ScrubReport",
    "ShardInfo",
    "ShardReader",
    "STORE_VERSION",
    "StoreError",
    "StoreManifestError",
    "StoreSchemaError",
    "StoreTable",
    "StreamingShardWriter",
    "TableSpec",
    "manifest_checksum",
    "page_crc32s",
    "parse_manifest",
    "seal_manifest",
    "shard_filename",
]
