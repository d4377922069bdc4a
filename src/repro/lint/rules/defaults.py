"""``mutable-default-arg``: mutable literals as parameter defaults.

A ``def f(history=[])`` default is evaluated once at function definition
time and shared across every call — in a training stack this turns into
cross-run state leakage (losses from one experiment appended to the
next).  The rule flags list/dict/set displays, comprehensions, and bare
``list()``/``dict()``/``set()``/``bytearray()`` constructor calls in
positional or keyword-only defaults of functions, methods, and lambdas.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..registry import Rule, register
from ..violations import Violation

_MUTABLE_DISPLAYS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray"}


def _mutable_kind(default: ast.expr) -> Optional[str]:
    """Return a human name if ``default`` builds a shared mutable object."""
    if isinstance(default, _MUTABLE_DISPLAYS):
        return type(default).__name__.replace("Comp", " comprehension").lower()
    if (
        isinstance(default, ast.Call)
        and isinstance(default.func, ast.Name)
        and default.func.id in _MUTABLE_CONSTRUCTORS
    ):
        return f"{default.func.id}()"
    return None


@register
class MutableDefaultArgRule(Rule):
    """Flags mutable default argument values shared across calls."""

    name = "mutable-default-arg"
    code = "R002"
    description = "mutable default argument shared across calls"

    def check(self, ctx) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            for arg, default in zip(positional[-len(args.defaults) :], args.defaults):
                kind = _mutable_kind(default)
                if kind is not None:
                    yield self._flag(ctx, default, arg.arg, kind)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is None:
                    continue
                kind = _mutable_kind(default)
                if kind is not None:
                    yield self._flag(ctx, default, arg.arg, kind)

    def _flag(self, ctx, default: ast.expr, arg_name: str, kind: str) -> Violation:
        return self.violation(
            ctx.display_path,
            default,
            f"default for {arg_name!r} is a mutable {kind} shared across "
            "calls; default to None and create it inside the function",
        )
