"""``no-pickle-in-src``: ``pickle`` anywhere inside the library.

Unpickling runs whatever the bytes say, so bytes the library did not
just make itself — a socket frame, a manifest, a file on disk — must
go through a closed parser instead: the worker link has its binary
frame (:mod:`repro.serving.protocol`), arrays reach disk as raw shards
or ``.npz`` members, and documents as canonical JSON.  The rule flags
``import pickle``, ``from pickle import ...`` and an
``allow_pickle=True`` keyword (which lets ``np.load`` unpickle) in
any module under ``src/repro/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import Rule, register
from ..violations import Violation
from .prints import LIBRARY_PATH


def _is_true(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


@register
class NoPickleInSrcRule(Rule):
    """Flags ``pickle`` imports and ``allow_pickle=True`` in ``src/repro``."""

    name = "no-pickle-in-src"
    code = "R009"
    description = (
        "pickle import or allow_pickle=True inside src/repro; parse "
        "untrusted bytes with a closed schema"
    )

    def check(self, ctx) -> Iterator[Violation]:
        if LIBRARY_PATH not in ctx.display_path.replace("\\", "/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "pickle" for alias in node.names):
                    yield self.violation(
                        ctx.display_path, node, "import of pickle in library code"
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] == "pickle":
                    yield self.violation(
                        ctx.display_path, node, "import from pickle in library code"
                    )
            elif isinstance(node, ast.keyword):
                if node.arg == "allow_pickle" and _is_true(node.value):
                    yield self.violation(
                        ctx.display_path,
                        node.value,
                        "allow_pickle=True lets np.load unpickle its input",
                    )
