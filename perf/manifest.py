"""``BENCHMARK.json`` as the benchmark reads it.

The manifest at the repository root is the single list of workload and
metric names, units, directions and regression bounds; the runner emits
exactly those names.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, List

from . import ROOT

MANIFEST_PATH = ROOT / "BENCHMARK.json"


@lru_cache(maxsize=1)
def load() -> dict:
    return json.loads(MANIFEST_PATH.read_text("utf-8"))


def end_to_end() -> List[dict]:
    return load()["end_to_end"]


def per_layer() -> List[dict]:
    return load()["per_layer"]


def layer_names() -> List[str]:
    return [metric["name"] for metric in per_layer()]


def workload_names() -> List[str]:
    return [workload["name"] for workload in load()["workloads"]]


def run_seconds() -> int:
    return int(load()["run_seconds"])


def units() -> Dict[str, str]:
    return {
        metric["name"]: metric["unit"] for metric in end_to_end() + per_layer()
    }
