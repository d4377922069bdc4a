"""BENCHMARK.json, the exact-metric table and the workload registry agree."""

import ast
import json
import re
from pathlib import Path

from perf import ROOT, manifest
from perf.aa import EXACT
from perf.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PERF = Path(manifest.__file__).resolve().parent


def test_manifest_has_exactly_the_contract_keys():
    document = manifest.load()
    assert set(document) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert document["paths"] == ["perf"]
    assert document["command"][:3] == ["python3", "-m", "perf"]
    assert isinstance(document["run_seconds"], int)
    assert 1 <= document["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_names_and_units_are_well_formed_and_unique():
    document = manifest.load()
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["bound"] > 0
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128


def test_setup_metric_is_the_contracts():
    (setup,) = [m for m in manifest.end_to_end() if m["name"] == "setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    # The contract gives set-up time the largest bound.
    assert setup["bound"] == max(m["bound"] for m in manifest.end_to_end())


def test_registry_and_exact_table_match_the_manifest():
    assert list(WORKLOADS) == manifest.workload_names()
    for name, workload in WORKLOADS.items():
        assert workload.name == name
    assert set(EXACT) <= set(WORKLOADS)
    for metrics in EXACT.values():
        assert set(metrics) <= set(manifest.layer_names())


def test_calibration_kernels_import_nothing_from_the_program():
    tree = ast.parse((PERF / "calib.py").read_text("utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "calib.py must not import from perf either"
            imported.add(node.module.split(".")[0])
    assert "repro" not in imported
    assert imported <= {
        "__future__",
        "collections",
        "gc",
        "json",
        "math",
        "pathlib",
        "time",
        "typing",
        "zlib",
        "numpy",
    }


def test_reference_constants_are_frozen_and_positive():
    document = json.loads((PERF / "reference.json").read_text("utf-8"))
    reference = document["calibration_reference_ms"]
    assert set(reference) == {"interp", "numeric", "bandwidth"}
    assert all(value > 0 for value in reference.values())
    assert 0.0 < document["index_churn_recall_floor"] < 1.0
