"""One real ``--smoke`` run: names, banner, cleanliness, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perf import ROOT, manifest

PERF = ROOT / "perf"


def _tree():
    """Every file under the checkout except caches and committed results."""
    skipped = {".git", "__pycache__", ".pytest_cache", ".hypothesis", "results"}
    found = set()
    for directory, names, files in os.walk(ROOT):
        names[:] = [name for name in names if name not in skipped]
        found.update(str(Path(directory, name).relative_to(ROOT)) for name in files)
    return found


@pytest.fixture(scope="module")
def smoke():
    before = _tree()
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--smoke"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=120,
        check=False,
    )
    elapsed = time.perf_counter() - started
    return completed, elapsed, before, _tree()


def test_smoke_run_succeeds_quickly_and_says_it_is_not_comparable(smoke):
    completed, elapsed, _, _ = smoke
    assert completed.returncode == 0, completed.stderr.decode()[-2000:]
    assert b"NOT comparable" in completed.stdout
    # 20 s is the budget on a quiet host; the margin is for a slow window.
    assert elapsed < 40.0


def test_every_manifest_name_is_emitted_and_nothing_else(smoke):
    completed, _, _, _ = smoke
    line = json.loads(completed.stdout.decode().strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {
        f"{workload}/{metric['name']}"
        for workload in manifest.workload_names()
        for metric in manifest.end_to_end() + manifest.per_layer()
    }
    assert set(line["metrics"]) == expected
    units = manifest.units()
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[name.split("/", 1)[1]]
        assert isinstance(entry["value"], float)
    for workload in manifest.workload_names():
        for metric in manifest.end_to_end():
            assert line["metrics"][f"{workload}/{metric['name']}"]["value"] > 0


def test_run_leaves_nothing_behind_outside_results(smoke):
    _, _, before, after = smoke
    assert after == before
    assert not (PERF / ".work").exists()
    for workload in manifest.workload_names():
        trace = PERF / "results" / f"trace_{workload}.json"
        assert json.loads(trace.read_text("utf-8"))["traceEvents"]


def test_workers_are_reaped(smoke):
    listing = subprocess.run(
        ["ps", "-eo", "args"], stdout=subprocess.PIPE, check=False
    ).stdout.decode()
    assert "perf pass" not in listing


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perf/ has nothing to
    measure: non-zero exit, no result line."""
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for source in PERF.rglob("*"):
        if source.is_file() and "__pycache__" not in source.parts:
            target = tmp_path / source.relative_to(ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(source.read_bytes())
    completed = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--workload", "bulk_ram"]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=60,
        check=False,
    )
    assert completed.returncode != 0
    assert b'"metrics"' not in completed.stdout
