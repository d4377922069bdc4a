"""Versioned store+index snapshots with atomic CURRENT promotion.

The stream pipeline periodically freezes its live state into a
*version*::

    <root>/versions/v000003/store/...      repro.store (streamed build)
    <root>/versions/v000003/index/...      ANN snapshot (also a store)
    <root>/versions/v000003/version.json   sealed: seq, counts, checksums
    <root>/CURRENT                         the promoted version name

Write order is the checkpoint discipline end-to-end: payloads first
(each internally atomic), the sealed ``version.json`` after them, and
the ``CURRENT`` pointer strictly last — a crash anywhere leaves the
previous version promoted and the torn one invisible.  Re-publishing
the same version after a crash rewrites byte-identical files, which is
what lets the chaos drill demand byte equality.

Serving handoff rides the PR 3 gateway lifecycle unchanged:
:func:`swap_gateway` drains the gateway to quiescence, swaps in a
server cold-started from the version's store, and returns it — no new
swap machinery, the stream layer is just another caller of
``drain()``/``swap()``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..core.service import PKGMServer, write_server_store
from ..index.snapshot import load_index, save_index
from ..obs.metrics import MetricsRegistry
from ..reliability.checkpoint import atomic_write_bytes, sha256_of_file
from ..store.layout import (
    MANIFEST_NAME,
    canonical_json,
    parse_manifest,
    seal_manifest,
)

CURRENT_NAME = "CURRENT"
VERSION_RE = re.compile(r"v(\d{6})$")


class SnapshotSwapError(RuntimeError):
    """A version is missing, torn, or fails verification."""


class SnapshotVersioner:
    """Publishes and resolves versioned serving snapshots under a root."""

    def __init__(
        self,
        root: Union[str, Path],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._publishes_c = self.metrics.counter(
            "stream.publishes", help="Snapshot versions published"
        )
        self._published_seq_g = self.metrics.gauge(
            "stream.published_seq", help="Last op seq in the current version"
        )
        self._version_g = self.metrics.gauge(
            "stream.version", help="Currently promoted snapshot version"
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def version_name(self, version: int) -> str:
        return f"v{version:06d}"

    def version_dir(self, version: int) -> Path:
        return self.root / "versions" / self.version_name(version)

    @property
    def current_path(self) -> Path:
        return self.root / CURRENT_NAME

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(
        self,
        version: int,
        tables: Dict[str, np.ndarray],
        index,
        *,
        seq: int,
    ) -> Path:
        """Freeze ``tables`` + ``index`` as ``version``; promote it.

        ``tables`` must be the five pkgm-server tables that
        :meth:`repro.core.PKGMServer.from_store` expects.  The store
        goes through the server's own schema writer (streamed build,
        bounded memory), the index through :func:`save_index` (a store
        directory too, pinned by its manifest SHA), and CURRENT is
        rewritten only after the sealed version manifest lands.
        Deterministic inputs → byte-identical version directories,
        even when re-published over a torn previous attempt.
        """
        directory = self.version_dir(version)
        store_dir = directory / "store"
        write_server_store(
            store_dir,
            tables,
            metadata={"stream_version": int(version), "stream_seq": int(seq)},
        ).close()
        save_index(index, directory / "index")
        manifest = seal_manifest(
            {
                "version": 1,  # manifest format version (parse_manifest pins it)
                "snapshot_version": int(version),
                "seq": int(seq),
                "store_manifest_sha256": sha256_of_file(
                    store_dir / MANIFEST_NAME
                ),
                "index_manifest_sha256": sha256_of_file(
                    directory / "index" / MANIFEST_NAME
                ),
                "extra": {},
            }
        )
        atomic_write_bytes(
            directory / "version.json", canonical_json(manifest)
        )
        atomic_write_bytes(
            self.current_path, (self.version_name(version) + "\n").encode()
        )
        self._publishes_c.inc(1)
        self._published_seq_g.set(seq)
        self._version_g.set(version)
        return directory

    # ------------------------------------------------------------------
    # Resolve / load
    # ------------------------------------------------------------------
    def current_version(self) -> Optional[int]:
        """The promoted version number, or ``None`` before first publish."""
        if not self.current_path.exists():
            return None
        name = self.current_path.read_text().strip()
        match = VERSION_RE.fullmatch(name)
        if match is None:
            raise SnapshotSwapError(f"CURRENT names invalid version {name!r}")
        return int(match.group(1))

    def verify(self, version: int) -> dict:
        """Parse + cross-check one version's manifest; returns it."""
        directory = self.version_dir(version)
        manifest_path = directory / "version.json"
        if not manifest_path.exists():
            raise SnapshotSwapError(
                f"version {version} has no sealed manifest"
            )
        manifest = parse_manifest(manifest_path.read_bytes())
        if int(manifest.get("snapshot_version", -1)) != version:
            raise SnapshotSwapError(
                f"version {version}: manifest claims snapshot "
                f"{manifest.get('snapshot_version')!r}"
            )
        for part in ("store", "index"):
            actual = sha256_of_file(directory / part / MANIFEST_NAME)
            if actual != manifest[f"{part}_manifest_sha256"]:
                raise SnapshotSwapError(
                    f"version {version}: {part} manifest checksum mismatch"
                )
        return manifest

    def load_server(
        self,
        version: int,
        *,
        cache_pages: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> PKGMServer:
        """Cold-start a server over one published version's store."""
        self.verify(version)
        return PKGMServer.from_store(
            self.version_dir(version) / "store",
            cache_pages=cache_pages,
            registry=registry,
        )

    def load_index(self, version: int, registry=None):
        """Load one published version's ANN snapshot."""
        self.verify(version)
        return load_index(self.version_dir(version) / "index", registry=registry)


def swap_gateway(gateway, versioner: SnapshotVersioner, version: int):
    """Drain the live gateway and swap in a published version's server.

    Returns the freshly loaded server.  This is the PR 3 state machine
    verbatim — ``serving → draining → quiesced → serving`` — so every
    in-flight request completes against the old snapshot and the first
    post-swap request sees the new one.
    """
    server = versioner.load_server(version)
    gateway.drain()
    gateway.swap(server)
    return server
