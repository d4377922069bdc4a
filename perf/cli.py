"""Command line: ``python3 -m perf run | pass | aa``."""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from . import ROOT, manifest


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m perf")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure and print every metric")
    run.add_argument("--workload", default=None, help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="seconds measured per workload (default: BENCHMARK.json run_seconds)",
    )
    run.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=None,
        choices=(0, 1),
        help="0: end-to-end passes only; 1: the traced per-layer pass only; "
        "omitted: both",
    )
    run.add_argument(
        "--smoke",
        action="store_true",
        help="one short pass per workload; numbers are not comparable",
    )
    run.add_argument(
        "--write-baseline",
        action="store_true",
        help="record this run as perf/results/baseline.json",
    )

    one = commands.add_parser("pass", help="(internal) one pass in this process")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, required=True)
    one.add_argument("--smoke", action="store_true")

    aa = commands.add_parser("aa", help="same code twice: do the sets agree?")
    aa.add_argument("--sets", type=int, default=2)
    aa.add_argument("--runs", type=int, default=5)
    return parser


def _require_program() -> None:
    """Refuse to start without the program this benchmark measures."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perf: no program to measure: {ROOT / 'src' / 'repro'} is missing"
        )


def _names(selected: Optional[str]) -> List[str]:
    names = manifest.workload_names()
    if selected is None:
        return names
    if selected not in names:
        raise SystemExit(f"perf: unknown workload {selected!r}; have {names}")
    return [selected]


def _run(args: argparse.Namespace) -> int:
    from . import runner

    if args.smoke and args.write_baseline:
        raise SystemExit("perf: a smoke run is never written to the baseline")
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(manifest.run_seconds())
    if args.smoke:
        print("*** SMOKE RUN: shortened, single pass -- numbers are NOT comparable ***")
    reports = runner.run_benchmark(
        _names(args.workload),
        args.seed,
        seconds,
        end_to_end=args.trace in (None, 0),
        per_layer=args.trace in (None, 1),
        smoke=args.smoke,
    )
    for report in reports:
        print("\n".join(runner.format_report(report)))
    if args.write_baseline:
        document = runner.results_document(reports, args.seed, seconds)
        path = runner.RESULTS_DIR / "baseline.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", "utf-8")
        print(f"baseline written to {path.relative_to(ROOT)}")
    line = runner.result_line(reports)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _pass(args: argparse.Namespace) -> int:
    from . import runner

    record = runner.run_pass(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print(json.dumps(record))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    _require_program()
    if args.command == "run":
        return _run(args)
    if args.command == "pass":
        return _pass(args)
    from . import aa

    return aa.main(args)
