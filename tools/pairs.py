"""Alternating parent/change pairs of one benchmark workload, summarised.

Runs ``python3 -m perf run --workload W --seed S --trace 0`` in two
checkouts, one pair per seed, flipping which side runs first every pair
so drift on a shared machine falls on both sides alike.  A run that
exits non-zero, answers ``correct: false`` or fails an operation is
refused and stops the script.  Then, for every end-to-end metric of the
parent's ``BENCHMARK.json``, it prints each side's median and quartiles,
how many pairs the change won, the parent's IQR, and whether the claim
rule holds: the change wins at least 9 pairs in 10, and its median beats
the parent's by more than the parent's IQR.

Each checkout runs its own ``perf`` on its own ``src/``, so the two
directories are two commits (``git clone`` one beside the other).

With ``--record`` the run also appends one JSON object, on one line, to
``BENCH_<workload>.json`` at the root of this repository: both commits
(each checkout's HEAD, ``-dirty`` if a tracked file was edited), the
date, the seeds, and for every end-to-end metric each side's raw
per-pair values, ``[q1, median, q3]``, the change's wins, the parent's
IQR and the verdict; then the host (CPU count and model, Python, numpy
and ``tools/golden.py``'s arithmetic fingerprint), so drift between
hosts or days shows as drift between rows.  The file is only ever
appended to, and a refused run appends nothing.

When both checkouts are the same clean commit the run is an A/A run:
its row says ``"aa": true``, each metric carries the quartiles of the
paired differences in percent (``noise_pct``) instead of a claim
verdict, and the table prints that noise floor.

Usage:  python tools/pairs.py --parent ../parent --change . \\
            --workload online_pool --seeds 1-10 [--record]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from golden import fingerprint  # tools/golden.py, beside this script

SIDES = ("parent", "change")
#: Where ``--record`` appends ``BENCH_<workload>.json``.
ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> List[int]:
    """``"A-B"`` (inclusive) or ``"A"`` → the seeds, one pair each."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int) -> Dict[str, float]:
    """One untraced run in ``checkout``: its metric values, or exit."""
    command = [
        sys.executable, "-m", "perf", "run",
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode or not lines:
        sys.exit(
            f"{checkout}: seed {seed} exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    report = json.loads(lines[-1])
    if not report["correct"] or report["failed"] > 0:
        sys.exit(
            f"{checkout}: seed {seed} refused (correct={report['correct']}, "
            f"failed={report['failed']} of {report['attempted']})"
        )
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def compare(
    metric: dict, runs: Dict[str, List[Dict[str, float]]], aa: bool = False
) -> dict:
    """One metric over the pairs: raw values, medians and quartiles, the
    change's wins, the parent's IQR and whether the claim rule holds,
    or for an A/A run the quartiles of the paired differences in %."""
    name = metric["name"]
    parent = [run[name] for run in runs["parent"]]
    change = [run[name] for run in runs["change"]]
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (new - old) > 0 for old, new in zip(parent, change))
    figures = {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": parent,
        "change": change,
        "parent_quartiles": [p1, pm, p3],
        "change_quartiles": [c1, cm, c3],
        "wins": wins,
        "parent_iqr": p3 - p1,
    }
    if aa:
        deltas = [(new - old) / old * 100 for old, new in zip(parent, change)]
        figures["noise_pct"] = list(quartiles(deltas))
    else:
        holds = wins * 10 >= 9 * len(parent) and sign * (cm - pm) > p3 - p1
        figures["claim_holds"] = holds
    return figures


def summarise(name: str, figures: dict) -> List[str]:
    """One table row: medians [q1, q3], change, wins, parent IQR, then
    the claim rule, or an A/A run's paired differences [q1, q3]."""
    p1, pm, p3 = figures["parent_quartiles"]
    c1, cm, c3 = figures["change_quartiles"]
    if "noise_pct" in figures:
        n1, _, n3 = figures["noise_pct"]
        verdict = f"{n1:+.1f} … {n3:+.1f} %"
    else:
        verdict = "yes" if figures["claim_holds"] else "no"
    return [
        f"`{name}` ({figures['unit']})",
        f"{pm:.4g} [{p1:.4g}, {p3:.4g}]",
        f"{cm:.4g} [{c1:.4g}, {c3:.4g}]",
        f"{(cm - pm) / pm * 100:+.1f} %" if pm else "—",
        f"{figures['wins']}/{len(figures['parent'])}",
        f"{figures['parent_iqr']:.4g}",
        verdict,
    ]


def commit(checkout: Path) -> Optional[str]:
    """The checkout's HEAD, ``-dirty`` if a tracked file has changed."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True
        )

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def host() -> dict:
    """What the figures depend on besides the two commits."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    models = [
        line.split(":", 1)[1].strip()
        for line in cpuinfo
        if line.startswith("model name")
    ]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fingerprint": fingerprint(),
    }


def same_clean_commit(commits: Dict[str, Optional[str]]) -> bool:
    """Whether both sides are one commit with no tracked file edited."""
    parent, change = commits["parent"], commits["change"]
    return parent is not None and parent == change and not parent.endswith("-dirty")


def record(
    args: argparse.Namespace, commits: Dict[str, Optional[str]], figures: Dict[str, dict]
) -> Path:
    """Append one row for this run to ``BENCH_<workload>.json``."""
    row = {
        "workload": args.workload,
        "parent": commits["parent"],
        "change": commits["change"],
        "aa": same_clean_commit(commits),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat("T", "seconds"),
        "seeds": args.seeds,
        "trace": 0,
        "metrics": figures,
        "host": host(),
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    with path.open("a", encoding="utf-8") as out:
        out.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument(
        "--record", action="store_true",
        help="append this run to BENCH_<workload>.json at the repository root",
    )
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    runs: Dict[str, List[Dict[str, float]]] = {side: [] for side in SIDES}
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(checkouts[side], args.workload, seed))
        print(
            f"# pair {pair + 1} seed {seed} ({order[0]} first): "
            + "; ".join(
                f"{side} p50 {runs[side][-1]['latency_p50_ms']:.3f} ms"
                for side in SIDES
            ),
            flush=True,
        )
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    commits = {side: commit(checkouts[side]) for side in SIDES}
    aa = same_clean_commit(commits)
    header = [
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "change", "wins", "parent IQR",
        "A/A paired Δ [q1, q3]" if aa else "≥ 9/10 and gap > IQR",
    ]
    print(f"\n{args.workload}, {len(args.seeds)} pairs, seeds {args.seeds[0]}–"
          f"{args.seeds[-1]}, --trace 0" + (", A/A: one commit on both sides" if aa else ""))
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    figures = {m["name"]: compare(m, runs, aa) for m in benchmark["end_to_end"]}
    for name, entry in figures.items():
        print("| " + " | ".join(summarise(name, entry)) + " |")
    if args.record:
        print(f"\nrecorded in {record(args, commits, figures)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
