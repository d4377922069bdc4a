"""``tensor-inplace-grad``: raw ``.data`` writes outside ``no_grad``.

Assigning to ``tensor.data`` mutates values behind the autograd tape:
the graph recorded before the write back-propagates through stale data,
which corrupts gradients without any error.  The sanctioned pattern —
used by the optimizers, norm constraints, and parameter-server export —
is to make the intent explicit with :class:`repro.nn.tensor.no_grad`::

    with no_grad():
        param.data = param.data - lr * param.grad

The rule flags every ``<expr>.data = ...`` (and augmented) assignment
that is not lexically inside a ``with no_grad():`` block.  One
exception: ``self.data = ...`` inside ``__init__`` is construction-time
initialization (no graph can reference the tensor yet) and is allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..registry import Rule, register
from ..violations import Violation


def _is_no_grad_item(item: ast.withitem) -> bool:
    """Whether a ``with`` item is a ``no_grad()`` (or ``x.no_grad()``) call."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr == "no_grad"
    return isinstance(expr, ast.Name) and expr.id == "no_grad"


@register
class TensorInplaceGradRule(Rule):
    """Flags ``.data`` writes outside a ``with no_grad():`` block."""

    name = "tensor-inplace-grad"
    code = "R003"
    description = "write to tensor .data outside a no_grad() block"

    def check(self, ctx) -> Iterator[Violation]:
        yield from self._visit(ctx, ctx.tree.body, guarded=False, init_self=False)

    def _visit(
        self, ctx, body: List[ast.stmt], guarded: bool, init_self: bool
    ) -> Iterator[Violation]:
        for node in body:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "data"
                        and not guarded
                        and not (init_self and self._is_self_attr(target))
                    ):
                        yield self.violation(
                            ctx.display_path,
                            node,
                            "assignment to .data bypasses autograd; wrap the "
                            "update in `with no_grad():` to make the intent "
                            "explicit",
                        )
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner_guarded = guarded or any(
                    _is_no_grad_item(item) for item in node.items
                )
                yield from self._visit(ctx, node.body, inner_guarded, init_self)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function body executes later: the enclosing
                # no_grad scope does not apply at call time.
                yield from self._visit(
                    ctx, node.body, guarded=False, init_self=node.name == "__init__"
                )
            elif isinstance(node, ast.ClassDef):
                yield from self._visit(ctx, node.body, guarded, init_self=False)
            else:
                for child_body in self._nested_bodies(node):
                    yield from self._visit(ctx, child_body, guarded, init_self)

    @staticmethod
    def _is_self_attr(target: ast.Attribute) -> bool:
        return isinstance(target.value, ast.Name) and target.value.id == "self"

    @staticmethod
    def _nested_bodies(node: ast.stmt) -> Iterator[List[ast.stmt]]:
        """Statement lists nested in control flow (if/for/while/try...)."""
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block
        for handler in getattr(node, "handlers", ()):
            yield handler.body
