"""``tools/golden.py``: the committed answers ``tools/check.sh`` holds.

A golden is a fingerprint header over an oracle's output.  ``bless``
then ``compare`` of the same output passes, a moved line fails with a
unified diff, and a golden blessed under another fingerprint is skipped
with a notice rather than failed.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SPEC = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(golden)

OUTPUT = "resident sequence B=1  aa\nstore    sequence B=1  aa\n"


@pytest.fixture
def goldens(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path / "golden")
    output = tmp_path / "out.txt"
    output.write_text(OUTPUT)
    golden.bless("oracle", output)
    return tmp_path / "golden" / "oracle.txt", output


def test_header_is_the_fingerprint_then_the_output(goldens):
    path, _ = goldens
    lines = path.read_text().splitlines()
    assert lines == golden.fingerprint() + OUTPUT.splitlines()
    assert [line.split()[1] for line in golden.fingerprint()] == [
        "numpy",
        "machine",
        "blas",
        "openblas-core",
    ]


def test_same_output_passes(goldens, capsys):
    _, output = goldens
    assert golden.compare("oracle", output) == 0
    assert "unchanged" in capsys.readouterr().out


def test_moved_line_fails_with_a_unified_diff(goldens, capsys):
    _, output = goldens
    output.write_text(OUTPUT.replace("store    sequence B=1  aa", "store    sequence B=1  ab"))
    assert golden.compare("oracle", output) == 1
    printed = capsys.readouterr().out
    assert "-store    sequence B=1  aa" in printed
    assert "+store    sequence B=1  ab" in printed


def test_other_fingerprint_is_skipped_not_failed(goldens, capsys):
    path, output = goldens
    path.write_text(path.read_text().replace("# machine ", "# machine other-"))
    output.write_text("anything else\n")
    assert golden.compare("oracle", output) == 0
    assert "not compared" in capsys.readouterr().out


def test_committed_goldens_carry_a_header():
    paths = sorted((ROOT / "tools" / "golden").glob("*.txt"))
    assert [path.stem for path in paths] == [
        "served_seed0",
        "served_seed13",
        "trained_seed0",
        "trained_seed13",
    ]
    for path in paths:
        header, body = golden.split(path.read_text())
        assert [line.split()[1] for line in header] == [
            "numpy",
            "machine",
            "blas",
            "openblas-core",
        ]
        assert body
