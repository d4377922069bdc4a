"""Crash-mid-ingest drill: kill the pipeline, replay to identical bytes.

The drill runs the same stream twice:

* **clean** — one pipeline, start to finish;
* **crashed** — a pipeline killed *mid-delta*: its latest batch is
  appended to the log but never absorbed, and a torn half-written
  segment is left behind (the worst legal crash window), then a fresh
  process recovers purely from the delta log and finishes the run.

Recovery must converge to the clean run **byte-for-byte**: every delta
segment, every shard file and manifest of every published version,
the index snapshots, the ``CURRENT`` pointer, and the ``stream.*``
metrics dump.  The report prints timing-invariant lines ending
``stream drill: RECOVERED`` — ``tools/check.sh`` and CI run the drill
twice and diff the transcripts, so flakiness in any of those layers
fails the merge gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..config import ExperimentConfig
from ..store.layout import canonical_json, seal_manifest
from .pipeline import StreamPipeline, StreamReport, StreamRunConfig


@dataclass(frozen=True)
class StreamChaosReport:
    """Deterministic outcome of one drill."""

    ok: bool
    files_compared: int
    mismatched: Tuple[str, ...]
    clean: StreamReport
    recovered: StreamReport
    metrics_match: bool
    transcript_match: bool

    def lines(self) -> List[str]:
        """Byte-diffable stdout transcript."""
        out = list(self.clean.lines())
        out.append(
            f"artifacts: {self.files_compared} files byte-compared | "
            f"{len(self.mismatched)} mismatched"
        )
        out.append(
            "metrics: stream.* dump "
            + ("identical" if self.metrics_match else "DIVERGED")
        )
        out.append(
            f"stream drill: {'RECOVERED' if self.ok else 'FAILED'}"
        )
        return out

    def detail_lines(self) -> List[str]:
        """Operational detail for stderr (never byte-diffed)."""
        out = [
            f"recovered run replayed {self.recovered.replayed_batches} "
            f"logged batches"
        ]
        for name in self.mismatched:
            out.append(f"mismatch: {name}")
        if not self.transcript_match:
            out.append("clean/recovered report lines diverged")
        return out


def _walk_files(root: Path) -> List[Path]:
    return sorted(
        path for path in root.rglob("*") if path.is_file()
    )


def _compare_trees(clean: Path, crashed: Path) -> Tuple[int, List[str]]:
    """Byte-compare two run directories; returns (count, mismatches)."""
    clean_files = {
        str(path.relative_to(clean)): path for path in _walk_files(clean)
    }
    crashed_files = {
        str(path.relative_to(crashed)): path for path in _walk_files(crashed)
    }
    mismatched: List[str] = []
    names = sorted(set(clean_files) | set(crashed_files))
    for name in names:
        left = clean_files.get(name)
        right = crashed_files.get(name)
        if left is None or right is None:
            mismatched.append(name)
            continue
        if left.read_bytes() != right.read_bytes():
            mismatched.append(name)
    return len(names), mismatched


def run_stream_chaos(
    experiment: ExperimentConfig,
    run_dir: Union[str, Path],
    stream_config: Optional[StreamRunConfig] = None,
    kill_batch: int = 3,
) -> StreamChaosReport:
    """Run the clean/crashed pair and byte-compare everything.

    The simulated kill lands after batch ``kill_batch``.
    """
    if kill_batch < 1:
        raise ValueError("kill_batch must be >= 1")
    run_dir = Path(run_dir)
    stream_config = (
        stream_config if stream_config is not None else StreamRunConfig()
    )
    if stream_config.batches < 3:
        raise ValueError("the drill needs at least 3 batches")
    # The torn segment sits at kill_batch + 1; the recovered run must
    # regenerate (and so overwrite) it, which requires the kill point
    # to land at least two batches before the end.
    if kill_batch > stream_config.batches - 2:
        raise ValueError(
            f"kill_batch must be <= batches - 2 = {stream_config.batches - 2}, "
            f"got {kill_batch}"
        )

    clean_dir = run_dir / "clean"
    crashed_dir = run_dir / "crashed"

    clean_pipeline = StreamPipeline(experiment, clean_dir, stream_config)
    clean_report = clean_pipeline.run()

    # Phase 1: ingest up to the kill point, then die mid-delta — the
    # next batch is logged but never absorbed, and a half-written
    # follow-up segment is torn on disk.
    victim = StreamPipeline(experiment, crashed_dir, stream_config)
    victim.run(kill_batch)
    logged_not_absorbed = victim.stream.generate(kill_batch)
    victim.log.append(logged_not_absorbed)
    torn_doc = canonical_json(
        seal_manifest(
            {"version": 1, "batch": kill_batch + 1, "base_seq": -1,
             "last_seq": -1, "ops": []}
        )
    )
    # The first 48 bytes of the segment: a write torn mid-document.
    victim.log.segment_path(kill_batch + 1).write_bytes(torn_doc[:48])
    del victim  # the process is dead; nothing of it survives

    # Phase 2: a fresh process recovers from the delta log alone.
    recovered_pipeline = StreamPipeline(
        experiment, crashed_dir, stream_config
    )
    recovered_report = recovered_pipeline.run()

    files_compared, mismatched = _compare_trees(clean_dir, crashed_dir)
    metrics_match = (
        clean_pipeline.metrics_dump() == recovered_pipeline.metrics_dump()
    )
    transcript_match = clean_report.lines() == recovered_report.lines()
    ok = not mismatched and metrics_match and transcript_match
    return StreamChaosReport(
        ok=ok,
        files_compared=files_compared,
        mismatched=tuple(mismatched),
        clean=clean_report,
        recovered=recovered_report,
        metrics_match=metrics_match,
        transcript_match=transcript_match,
    )
