"""Shard files: atomic writes, mmap reads, per-page CRC verification.

A shard file is nothing but the raw fixed-width rows of its table
slice — no header, no framing.  All integrity metadata (page CRC32s,
whole-file SHA-256, byte size) lives in the store manifest, written
strictly after every payload in the ``tmp → fsync → rename``
discipline of :mod:`repro.reliability.checkpoint`.  That split keeps
the data path dense and mmap-friendly while making damage *detectable*
at page granularity: a torn write shortens the file (every page past
the tear fails), a bit flip fails exactly one page.

:class:`ShardReader` maps the file read-only and verifies pages
lazily: bytes are CRC-checked the first time a page is faulted in, not
at open, so cold-start cost is proportional to the manifest — not the
catalog.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..reliability.checkpoint import atomic_tmp_path, fsync_directory
from .layout import TableSpec


def page_crc32s(data: bytes, page_nbytes: int) -> List[int]:
    """CRC32 of each ``page_nbytes`` slice of ``data`` (last may be short)."""
    if page_nbytes < 1:
        raise ValueError("page_nbytes must be >= 1")
    return [
        zlib.crc32(data[start : start + page_nbytes])
        for start in range(0, len(data), page_nbytes)
    ]


@dataclass(frozen=True)
class ShardInfo:
    """Manifest-side integrity record of one shard file."""

    file: str
    nbytes: int
    sha256: str
    page_crcs: Tuple[int, ...]

    def to_manifest(self) -> dict:
        return {
            "file": self.file,
            "nbytes": self.nbytes,
            "sha256": self.sha256,
            "page_crcs": list(self.page_crcs),
        }

    @classmethod
    def from_manifest(cls, doc: dict) -> "ShardInfo":
        return cls(
            file=str(doc["file"]),
            nbytes=int(doc["nbytes"]),
            sha256=str(doc["sha256"]),
            page_crcs=tuple(int(c) for c in doc["page_crcs"]),
        )


class StreamingShardWriter:
    """The one shard writer: atomic, incremental, bounded memory.

    ``write`` chunks append to a same-directory temp file while the
    SHA-256 and page CRCs accumulate incrementally; a partial trailing
    page is carried between chunks so CRC boundaries never depend on
    chunk sizes (:func:`page_crc32s` of the concatenated chunks is the
    reference).  ``finish`` flushes, fsyncs, renames over the
    destination and fsyncs the directory — the identical crash contract
    to :func:`repro.reliability.checkpoint.atomic_write_bytes` — and
    returns the shard's :class:`ShardInfo`.  A crash (or ``abort``)
    before ``finish`` leaves only a temp file the manifest never names.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        filename: str,
        page_nbytes: int,
    ) -> None:
        if page_nbytes < 1:
            raise ValueError("page_nbytes must be >= 1")
        self.directory = Path(directory)
        self.filename = filename
        self.page_nbytes = page_nbytes
        self._path = self.directory / filename
        self._tmp = atomic_tmp_path(self._path)
        self._handle = open(self._tmp, "wb")
        self._digest = hashlib.sha256()
        self._crcs: List[int] = []
        self._carry = b""
        self._nbytes = 0
        self._done = False

    def write(self, data: bytes) -> None:
        """Append one chunk (any size, including empty)."""
        if self._done:
            raise RuntimeError("writer already finished/aborted")
        data = bytes(data)
        if not data:
            return
        self._handle.write(data)
        self._digest.update(data)
        self._nbytes += len(data)
        buffered = self._carry + data
        full = (len(buffered) // self.page_nbytes) * self.page_nbytes
        for start in range(0, full, self.page_nbytes):
            self._crcs.append(
                zlib.crc32(buffered[start : start + self.page_nbytes])
            )
        self._carry = buffered[full:]

    def finish(self) -> ShardInfo:
        """Seal the shard: fsync, rename, dir-fsync; return its record."""
        if self._done:
            raise RuntimeError("writer already finished/aborted")
        self._done = True
        if self._carry:
            self._crcs.append(zlib.crc32(self._carry))
            self._carry = b""
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._tmp, self._path)
        finally:
            if self._tmp.exists():
                self._tmp.unlink()
        fsync_directory(self.directory)
        return ShardInfo(
            file=self.filename,
            nbytes=self._nbytes,
            sha256=self._digest.hexdigest(),
            page_crcs=tuple(self._crcs),
        )

    def abort(self) -> None:
        """Discard the temp file; the destination is untouched."""
        if self._done:
            return
        self._done = True
        self._handle.close()
        if self._tmp.exists():
            self._tmp.unlink()


class ShardReader:
    """Read-only mmap view of one shard file with CRC-checked pages.

    ``read_page`` returns ``(data, ok)``: ``ok`` is ``False`` when the
    page's bytes are missing (file shorter than the manifest says — a
    torn write) or fail their manifest CRC (bit rot).  The reader never
    raises for damage; quarantine policy belongs to the store.
    """

    def __init__(self, path: Union[str, Path], spec: TableSpec, shard: int,
                 info: ShardInfo) -> None:
        self.path = Path(path)
        self.info = info
        # All a fault needs of the spec, in bytes and derived once: a
        # fault is a multiplication and a ``min``, never a walk over it.
        self._page_nbytes = spec.rows_per_page * spec.row_nbytes
        self._nbytes = spec.shard_nbytes(shard)
        self._whole = spec.shard_pages(shard) == len(info.page_crcs)
        self._mmap: Optional[mmap.mmap] = None
        self._file = None
        self._size = 0
        self._opened = False

    # -- lifecycle ------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._opened:
            return
        self._opened = True
        try:
            self._file = open(self.path, "rb")
            self._size = os.fstat(self._file.fileno()).st_size
            if self._size > 0:
                self._mmap = mmap.mmap(
                    self._file.fileno(), 0, access=mmap.ACCESS_READ
                )
        except OSError:
            # Missing/unreadable file: every page reads as damaged.
            self.close()
            self._opened = True

    def close(self) -> None:
        """Release the mapping (repair reopens a fresh one)."""
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None
        self._size = 0
        self._opened = False

    # -- page access ----------------------------------------------------
    def read_page(self, page: int) -> Tuple[bytes, bool]:
        """``(bytes, ok)`` for one page, verified against its CRC."""
        if not 0 <= page < len(self.info.page_crcs):
            return b"", False
        start = page * self._page_nbytes
        stop = min(start + self._page_nbytes, self._nbytes)
        self._ensure_open()
        if self._mmap is None or stop > self._size:
            # Torn write / truncation: the page is (partly) gone.
            return b"", False
        data = bytes(self._mmap[start:stop])
        if zlib.crc32(data) != self.info.page_crcs[page]:
            return data, False
        return data, True

    def view(self) -> Tuple[Optional[mmap.mmap], int, Tuple[int, ...]]:
        """``(mapping, page_nbytes, page_crcs)``: page ``p`` is
        ``mapping[p * page_nbytes : (p + 1) * page_nbytes]``, good if its
        CRC is ``page_crcs[p]``.  ``mapping`` is ``None`` unless the file
        and the CRC list are the manifest's length: :meth:`read_page` then."""
        self._ensure_open()
        whole = self._whole and self._size == self._nbytes
        return self._mmap if whole else None, self._page_nbytes, self.info.page_crcs

    def raw_bytes(self) -> bytes:
        """Whatever is on disk right now (may be short; repair input)."""
        self._ensure_open()
        if self._mmap is None:
            return b""
        return bytes(self._mmap[: self._size])
