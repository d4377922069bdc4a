"""``unused-import``: an imported name its scope never reads.

An import nothing reads still runs — and keeps a module looking like
it depends on something it no longer does, so a deletion upstream
leaves a dangling import behind instead of a clean break.  The rule
flags every ``import``/``from ... import`` binding that no name in
its scope reads: the whole module for a top-level import, the
enclosing function (closures included) for a local one.

What is not flagged:

* ``from __future__ import ...`` — a compiler directive, not a name;
* any import in a package ``__init__.py`` — those are the re-export
  surface, which ``export-drift`` (R006) and ``unused-export`` (P105)
  keep honest;
* a name listed in the module's literal ``__all__`` (a re-export);
* a name read only inside a string annotation (``-> "Store"``).

An import kept for its side effect is kept with an inline
``# repro-lint: disable=unused-import`` and its reason.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple, Union

from ..registry import Rule, register
from ..violations import Violation
from .exports import _literal_all

_Scope = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


def _imports(
    scope: _Scope,
) -> Iterator[Tuple[Union[ast.Import, ast.ImportFrom], str]]:
    """``(import node, bound name)`` for every import directly in
    ``scope`` — nested functions are scopes of their own."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name
        stack.extend(ast.iter_child_nodes(node))


def _annotations(node: ast.AST) -> List[ast.expr]:
    """The annotation expressions ``node`` carries, if any."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        every += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        found = [arg.annotation for arg in every if arg.annotation is not None]
        return found + ([node.returns] if node.returns is not None else [])
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def _names_in_string(text: str) -> Set[str]:
    """The names a string annotation (``"Optional[Store]"``) reads."""
    try:
        parsed = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()  # not an expression, so it names nothing
    return {node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)}


def _read_names(scope: _Scope) -> Set[str]:
    """Every name read anywhere under ``scope``, string annotations
    included."""
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _names_in_string(part.value)
    return names


@register
class UnusedImportRule(Rule):
    """Flags imported names their scope never reads."""

    name = "unused-import"
    code = "R010"
    description = "an imported name that nothing in its scope reads"

    def check(self, ctx) -> Iterator[Violation]:
        if ctx.is_package_init:
            return
        all_assign = _literal_all(ctx.tree)
        exported = {
            element.value
            for element in (all_assign.value.elts if all_assign else ())
            if isinstance(element, ast.Constant)
        }
        scopes: List[_Scope] = [ctx.tree] + [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            read = _read_names(scope)
            for node, bound in _imports(scope):
                if bound in read or (scope is ctx.tree and bound in exported):
                    continue
                yield self.violation(
                    ctx.display_path,
                    node,
                    f"{bound!r} is imported but never used",
                )
