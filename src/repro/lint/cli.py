"""Command-line front end: ``python -m repro.lint <paths>``.

File and directory paths are the only argument.  Exit codes: 0 clean,
1 any finding, 2 usage error (including a path that does not exist).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from .engine import Linter


def build_parser() -> argparse.ArgumentParser:
    """The argument parser: positional paths and nothing else."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "AST-based correctness linter for the PKGM training stack: "
            "per-file rules and whole-program passes; every finding fails"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.lint`` entry point."""
    args = build_parser().parse_args(argv)
    try:
        result = Linter().lint_paths([Path(p) for p in args.paths or ["src"]])
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(result.report())
    except BrokenPipeError:
        # Reader (e.g. `... | head`) closed the pipe: stdout is
        # unusable, so silence it and still report the findings' status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return result.exit_code()
