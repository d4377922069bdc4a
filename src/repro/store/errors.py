"""Exception taxonomy for the out-of-core embedding store.

Kept dependency-free on purpose: :mod:`repro.reliability.gateway`
imports :class:`QuarantinedRowError` to answer damaged rows degraded
(reason ``"quarantined"``), and :mod:`repro.store` imports the reliability
package for its atomic-write primitives — a module with no imports is
what keeps that loop from becoming a real cycle.
"""

from __future__ import annotations


class StoreError(RuntimeError):
    """Base class for every storage-engine failure."""


class StoreManifestError(StoreError):
    """The store manifest is missing, torn, unparseable, or fails its
    self-checksum — nothing under the directory can be trusted."""


class StoreSchemaError(StoreError):
    """A table is missing, or its declared schema is inconsistent."""


class QuarantinedRowError(StoreError, LookupError):
    """A read touched a page that failed its CRC and is quarantined.

    Deliberately *not* a :class:`KeyError` and *not* an ``RPCError``:
    data damage is neither a caller bug nor a transient network fault,
    so retrying would only re-read the same bad bytes.  A pool worker
    reports it as a ``quarantined`` item, which the supervisor re-raises,
    and the gateway answers it with a degraded payload (reason
    ``"quarantined"``) instead of raising.
    """

    def __init__(self, table: str, row: int, shard: int, page: int) -> None:
        super().__init__(
            f"row {row} of table {table!r} is quarantined "
            f"(shard {shard}, page {page} failed its CRC)"
        )
        self.table = table
        self.row = row
        self.shard = shard
        self.page = page
