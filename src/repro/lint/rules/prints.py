"""``no-print-in-src``: bare ``print()`` calls inside the library.

Library code reports through return values, exceptions, and the
:mod:`repro.obs` registry — never through stdout.  A stray ``print()``
in the training or serving stack corrupts the byte-diffed outputs the
check.sh determinism gates rely on (``repro metrics`` run twice must
produce identical bytes) and cannot be filtered, levelled, or captured
the way registry telemetry can.

The CLI entry points are the sanctioned print surface and are
allowlisted; ``print`` referenced as a value (``log = print if verbose
else ...``) is deliberate indirection behind a flag and is not
flagged — only direct call expressions are.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import Rule, register
from ..violations import Violation

#: Path fragment that puts a module inside the library.
LIBRARY_PATH = "src/repro/"

#: Path suffixes allowed to print: the CLI reporting surface.
CLI_PATHS = ("repro/cli.py", "repro/lint/cli.py")


@register
class NoPrintInSrcRule(Rule):
    """Flags direct ``print(...)`` calls inside ``src/repro``."""

    name = "no-print-in-src"
    code = "R008"
    description = (
        "bare print() inside src/repro; emit through repro.obs or "
        "return values (CLI modules are allowlisted)"
    )

    def check(self, ctx) -> Iterator[Violation]:
        path = ctx.display_path.replace("\\", "/")
        if LIBRARY_PATH not in path or path.endswith(CLI_PATHS):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.violation(
                    ctx.display_path,
                    node,
                    "print() in library code; report via the repro.obs "
                    "registry or a return value",
                )
