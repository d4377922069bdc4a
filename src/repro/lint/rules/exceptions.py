"""``bare-except``/``swallowed-exception``: silent failure in hot paths.

A ``try: ... except: pass`` around a training step hides the exact
failures the numeric sanitizer exists to surface (NaN losses, shape
mismatches) and even swallows ``KeyboardInterrupt``.  Two findings:

* **bare except** — ``except:`` with no exception type, anywhere;
* **swallowed exception** — a handler whose body is only
  ``pass``/``...``/``continue``, i.e. the error vanishes without being
  logged, re-raised, or recorded.

Both are findings everywhere; a handler that must stay silent says
why next to a ``# repro-lint: disable=bare-except`` comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import Rule, register
from ..violations import Violation


def _is_noop(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Pass, ast.Continue)):
        return True
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis
    )


@register
class BareExceptRule(Rule):
    """Flags bare ``except:`` and handlers that swallow errors."""

    name = "bare-except"
    code = "R005"
    description = "bare or silently-swallowed exception handler"

    def check(self, ctx) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx.display_path,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt; "
                    "name the exception type",
                )
                continue
            if all(_is_noop(stmt) for stmt in node.body):
                yield self.violation(
                    ctx.display_path,
                    node,
                    "exception handler silently swallows the error; log, "
                    "re-raise, or record it",
                )
