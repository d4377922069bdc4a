"""``export-drift``: ``__all__`` out of sync with a package ``__init__``.

The package ``__init__.py`` files are the repro's public API surface;
each declares ``__all__``.  Two drift modes are caught:

* a name listed in ``__all__`` that the module never binds (renamed or
  deleted upstream — ``from repro.nn import X`` now raises only at
  import time);
* a public name bound at module top level (import, def, class, or
  assignment) that ``__all__`` omits, so ``from package import *`` and
  documentation tooling silently lose it.

Only ``__init__.py`` files are checked, and only when they define a
literal ``__all__``; plain modules may keep implicit APIs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..registry import Rule, register
from ..violations import Violation


def _literal_all(tree: ast.Module) -> Optional[ast.Assign]:
    """The ``__all__ = [...]`` assignment, if present with a literal list."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return node
    return None


def _bound_names(tree: ast.Module) -> Dict[str, int]:
    """Top-level bound names mapped to the line where they are bound."""
    names: Dict[str, int] = {}

    def bind(name: str, lineno: int) -> None:
        names.setdefault(name, lineno)

    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bind(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bind(alias.asname or alias.name, node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bind(node.name, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bind(target.id, node.lineno)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bind(node.target.id, node.lineno)
    return names


@register
class ExportDriftRule(Rule):
    """Flags ``__all__`` entries drifting from what an init binds."""

    name = "export-drift"
    code = "R006"
    description = "__all__ out of sync with the names a package init binds"

    def check(self, ctx) -> Iterator[Violation]:
        if not ctx.is_package_init:
            return
        all_assign = _literal_all(ctx.tree)
        if all_assign is None:
            return
        exported: List[str] = []
        for element in all_assign.value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                exported.append(element.value)
        bound = _bound_names(ctx.tree)
        exported_set: Set[str] = set(exported)

        for name in exported:
            if name not in bound:
                yield self.violation(
                    ctx.display_path,
                    all_assign,
                    f"__all__ exports {name!r} but the module never binds it",
                )
        for name, lineno in sorted(bound.items()):
            if name.startswith("_") or name in exported_set:
                continue
            yield self.violation(
                ctx.display_path,
                lineno,
                f"public name {name!r} is bound here but missing from __all__",
            )
