"""``tools/pairs.py --record``: the benchmark trajectory, append-only.

Two fake checkouts stand in for the parent and the change: each is a
git repository whose ``python -m perf run`` prints a canned report with
metric values set by the checkout and the seed.  A recorded run must
append exactly one JSON line to ``BENCH_<workload>.json`` holding both
commits, the seeds, every end-to-end metric's raw values and verdict,
and the host; a second run must leave the first line as it was; and a
refused run (a non-zero exit, ``correct: false``) must write nothing.
Two checkouts of one clean commit make an A/A row: ``"aa": true`` and
a noise floor per metric in place of the claim verdict.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
TOOLS = ROOT / "tools"

#: The fake ``perf``: values are ``BASE`` + seed, unless the seed is
#: the one named in ``REFUSE`` (answer wrong) or ``CRASH`` (exit 3).
FAKE_PERF = """
import json, pathlib, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
here = pathlib.Path.cwd()
for name, exit_code in (("CRASH", 3), ("REFUSE", 0)):
    if (here / name).exists() and int((here / name).read_text()) == seed:
        print(json.dumps({"correct": False, "attempted": 4, "failed": 0}))
        sys.exit(exit_code)
base = float((here / "BASE").read_text())
metrics = {
    "throughput_items_s": {"value": base + seed, "unit": "items/s"},
    "latency_p50_ms": {"value": 100.0 - base - seed, "unit": "ms"},
}
print("  throughput_items_s  (human-readable lines come first)")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}))
"""

BENCHMARK = {
    "end_to_end": [
        {"name": "throughput_items_s", "unit": "items/s", "better": "higher"},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower"},
    ]
}


@pytest.fixture
def pairs(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))  # pairs.py imports golden.py
    spec = importlib.util.spec_from_file_location("pairs", TOOLS / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def git(checkout, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout.strip()


def fake_checkout(path: Path, base: float) -> Path:
    (path / "perf").mkdir(parents=True)
    (path / "perf" / "__init__.py").write_text("")
    (path / "perf" / "__main__.py").write_text(FAKE_PERF)
    (path / "BASE").write_text(str(base))
    (path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    git(path, "init", "-q")
    git(path, "add", "-A")
    git(path, "commit", "-q", "-m", "fake")
    return path


@pytest.fixture
def checkouts(tmp_path):
    return (
        fake_checkout(tmp_path / "parent", 10.0),
        fake_checkout(tmp_path / "change", 12.0),
    )


def run(pairs, checkouts, seeds="1-4"):
    parent, change = checkouts
    return pairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "toy", "--seeds", seeds, "--record",
    ])


def test_a_run_appends_one_row(pairs, checkouts, tmp_path):
    parent, change = checkouts
    assert run(pairs, checkouts) == 0
    lines = (tmp_path / "BENCH_toy.json").read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["workload"] == "toy"
    assert row["seeds"] == [1, 2, 3, 4]
    assert row["parent"] == git(parent, "rev-parse", "HEAD")
    assert row["change"] == git(change, "rev-parse", "HEAD")
    assert row["aa"] is False
    assert len(row["parent"]) == 40 and row["date"].endswith("+00:00")
    throughput = row["metrics"]["throughput_items_s"]
    assert throughput["parent"] == [11.0, 12.0, 13.0, 14.0]
    assert throughput["change"] == [13.0, 14.0, 15.0, 16.0]
    assert throughput["parent_quartiles"] == [11.75, 12.5, 13.25]
    assert throughput["wins"] == 4
    assert throughput["parent_iqr"] == 1.5
    assert throughput["claim_holds"] is True  # 4/4, gap 2.0 > IQR 1.5
    latency = row["metrics"]["latency_p50_ms"]
    assert latency["parent"] == [89.0, 88.0, 87.0, 86.0]
    assert latency["wins"] == 4 and latency["better"] == "lower"
    assert set(row["host"]) == {"nproc", "cpu_model", "python", "numpy", "fingerprint"}
    assert row["host"]["fingerprint"][0].startswith("# numpy ")


def test_a_second_run_only_appends(pairs, checkouts, tmp_path):
    run(pairs, checkouts)
    first = (tmp_path / "BENCH_toy.json").read_bytes()
    (checkouts[1] / "BASE").write_text("10.5")  # a tracked file edited
    run(pairs, checkouts, seeds="5-6")
    both = (tmp_path / "BENCH_toy.json").read_bytes()
    assert both.startswith(first)
    second = json.loads(both[len(first):])
    assert second["seeds"] == [5, 6]
    assert second["change"].endswith("-dirty")
    assert second["metrics"]["throughput_items_s"]["claim_holds"] is False  # 2/2, gap 0.5


@pytest.mark.parametrize("refusal", ["CRASH", "REFUSE"])
def test_a_refused_run_writes_nothing(pairs, checkouts, tmp_path, refusal):
    bench = tmp_path / "BENCH_toy.json"
    flag = checkouts[1] / refusal
    flag.write_text("3")
    with pytest.raises(SystemExit) as stopped:
        run(pairs, checkouts)
    assert "seed 3" in str(stopped.value.code)
    assert not bench.exists()
    flag.unlink()
    run(pairs, checkouts)
    before = bench.read_bytes()
    flag.write_text("3")
    with pytest.raises(SystemExit):
        run(pairs, checkouts)
    assert bench.read_bytes() == before


def test_one_clean_commit_on_both_sides_is_an_a_a_row(pairs, tmp_path, capsys):
    parent = fake_checkout(tmp_path / "parent", 10.0)
    twin = tmp_path / "twin"
    subprocess.run(
        ["git", "clone", "-q", str(parent), str(twin)], check=True, capture_output=True
    )
    (twin / "BASE").write_text("10.0")
    assert run(pairs, (parent, twin)) == 0
    (row,) = [json.loads(line) for line in (tmp_path / "BENCH_toy.json").open()]
    assert row["aa"] is True
    assert row["parent"] == row["change"] == git(parent, "rev-parse", "HEAD")
    for figures in row["metrics"].values():
        assert "claim_holds" not in figures
        assert figures["noise_pct"] == [0.0, 0.0, 0.0]
    printed = capsys.readouterr().out
    assert "A/A" in printed and "+0.0 … +0.0 %" in printed
    assert "| yes |" not in printed and "| no |" not in printed


def test_an_edited_twin_is_not_an_a_a_row(pairs, tmp_path):
    parent = fake_checkout(tmp_path / "parent", 10.0)
    twin = tmp_path / "twin"
    subprocess.run(
        ["git", "clone", "-q", str(parent), str(twin)], check=True, capture_output=True
    )
    (twin / "BASE").write_text("11.0")  # a tracked file edited: "-dirty"
    run(pairs, (parent, twin))
    (row,) = [json.loads(line) for line in (tmp_path / "BENCH_toy.json").open()]
    assert row["aa"] is False and row["change"].endswith("-dirty")
    assert "claim_holds" in row["metrics"]["throughput_items_s"]
