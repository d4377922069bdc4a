"""A/A check: do two sets of runs of the same code agree?

``python3 -m perf aa --sets 2 --runs 5`` measures the current checkout
in alternating sets (A B A B ...), run *i* of every set with seed *i*.
For each workload and end-to-end metric it prints the set medians,
their relative gap, the bound ``BENCHMARK.json`` fixes, and PASS when
the gap is inside the bound; beside it, the run-to-run spread
(interquartile range over median) of the normalised metric and of its
raw wall-clock twin.  It also asserts that every layer metric marked
exact read the same, digit for digit, in every set.  The table is
written to ``perf/results/aa.json``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence

from . import manifest, runner

#: Layer metrics that are exact counts on a workload: the program's own
#: counters over a fixed number of rounds from a fixed state, which must
#: read the same, digit for digit, in every run of one code and seed.
EXACT = {
    "bulk_store": (
        "store.page_faults_per_item",
        "store.page_hit_ratio",
        "store.bytes_read_per_item",
        "store.page_evictions_per_item",
    ),
    "index_churn": (
        "index.build.distance_comps",
        "index.ivf.distance_comps_per_query",
        "stream.index_delta.reclusters",
    ),
}

RAW_TWIN = {
    "throughput_items_s": "harness.raw_throughput_items_s",
    "latency_p50_ms": "harness.raw_latency_p50_ms",
    "setup_s": "harness.raw_setup_s",
}


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(
    sets: List[List[Dict[str, runner.WorkloadReport]]], names: Sequence[str]
) -> dict:
    """The A/A table from ``sets[set][run][workload]``."""
    table: Dict[str, dict] = {}
    for name in names:
        rows = {}
        for metric in manifest.end_to_end():
            key, better, bound = metric["name"], metric["better"], metric["bound"]
            per_set = [[run[name].end_to_end[key] for run in runs] for runs in sets]
            medians = [statistics.median(values) for values in per_set]
            gap = max(
                abs(worse_by(medians[a], medians[b], better))
                for a in range(len(medians))
                for b in range(len(medians))
            )
            row = {
                "set_medians": medians,
                "gap": gap,
                "bound": bound,
                "pass": gap <= bound,
                "spread": statistics.mean(spread(values) for values in per_set),
            }
            twin = RAW_TWIN.get(key)
            if twin is not None:
                row["raw_spread"] = statistics.mean(
                    spread([run[name].end_to_end[twin] for run in runs])
                    for runs in sets
                )
            rows[key] = row
        inexact = []
        for key in EXACT.get(name, ()):
            for run_index in range(len(sets[0])):
                seen = {runs[run_index][name].per_layer[key] for runs in sets}
                if len(seen) > 1:
                    inexact.append(f"{key} (seed {run_index}): {sorted(seen)}")
        table[name] = {"end_to_end": rows, "inexact": inexact}
    return table


def format_table(table: dict) -> List[str]:
    lines = [
        f"{'workload':<12s} {'metric':<20s} {'set medians':<30s} "
        f"{'gap':>7s} {'bound':>6s} {'':4s} {'spread':>7s} {'raw':>7s}"
    ]
    for name, entry in table.items():
        for key, row in entry["end_to_end"].items():
            medians = " ".join(f"{value:.6g}" for value in row["set_medians"])
            raw = f"{row['raw_spread'] * 100:6.2f}%" if "raw_spread" in row else ""
            lines.append(
                f"{name:<12s} {key:<20s} {medians:<30s} "
                f"{row['gap'] * 100:6.2f}% {row['bound'] * 100:5.0f}% "
                f"{'PASS' if row['pass'] else 'FAIL'} "
                f"{row['spread'] * 100:6.2f}% {raw}"
            )
        for message in entry["inexact"]:
            lines.append(f"{name:<12s} NOT EXACT: {message}")
    return lines


def main(args) -> int:
    names = manifest.workload_names()
    seconds = float(manifest.run_seconds())
    sets: List[List[Dict[str, runner.WorkloadReport]]] = [
        [] for _ in range(args.sets)
    ]
    incorrect = 0
    for run_index in range(args.runs):
        for set_index in range(args.sets):
            reports = runner.run_benchmark(names, run_index, seconds, True, True)
            incorrect += sum(report.failed for report in reports)
            sets[set_index].append({report.name: report for report in reports})
            print(f"set {set_index} run {run_index} done", flush=True)
    table = compare(sets, names)
    print("\n".join(format_table(table)))
    document = {
        "sets": args.sets,
        "runs": args.runs,
        "run_seconds": seconds,
        "host": runner.host_facts(),
        "workloads": table,
    }
    path = runner.RESULTS_DIR / "aa.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", "utf-8")
    agreed = all(
        row["pass"] for entry in table.values() for row in entry["end_to_end"].values()
    ) and not any(entry["inexact"] for entry in table.values())
    return 0 if agreed and not incorrect else 1
