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

Usage:  python tools/pairs.py --parent ../parent --change . \\
            --workload online_pool --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

SIDES = ("parent", "change")


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


def summarise(
    metric: dict, runs: Dict[str, List[Dict[str, float]]]
) -> List[str]:
    """One table row: medians [q1, q3], change, wins, parent IQR, rule."""
    name, higher = metric["name"], metric["better"] == "higher"
    parent = [run[name] for run in runs["parent"]]
    change = [run[name] for run in runs["change"]]
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (new - old) > 0 for old, new in zip(parent, change))
    iqr = p3 - p1
    holds = wins * 10 >= 9 * len(parent) and sign * (cm - pm) > iqr
    return [
        f"`{name}` ({metric['unit']})",
        f"{pm:.4g} [{p1:.4g}, {p3:.4g}]",
        f"{cm:.4g} [{c1:.4g}, {c3:.4g}]",
        f"{(cm - pm) / pm * 100:+.1f} %" if pm else "—",
        f"{wins}/{len(parent)}",
        f"{iqr:.4g}",
        "yes" if holds else "no",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
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
    header = [
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "change", "wins", "parent IQR", "≥ 9/10 and gap > IQR",
    ]
    print(f"\n{args.workload}, {len(args.seeds)} pairs, seeds {args.seeds[0]}–"
          f"{args.seeds[-1]}, --trace 0")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for metric in benchmark["end_to_end"]:
        print("| " + " | ".join(summarise(metric, runs)) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
