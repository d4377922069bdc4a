"""Rule base class and the one registry of rules and program passes.

A rule is a class with ``name``, ``code`` and ``description`` that
overrides one of two hooks, each a generator of
:class:`~repro.lint.violations.Violation` objects:

* ``check(ctx)`` — per-file: one parsed module
  (:class:`~repro.lint.engine.ModuleContext`);
* ``check_program(index)`` — whole-program: the
  :class:`~repro.lint.program.index.ProgramIndex` built from every
  module's summary.

Registering is one decorator::

    @register
    class MyRule(Rule):
        name = "my-rule"
        code = "R999"
        description = "what it catches"

        def check(self, ctx):
            yield self.violation(ctx.display_path, node, "message")

Rules have no options: a rule's scope is a module constant.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Type, Union

from .violations import Violation


class Rule:
    """Base class for per-file rules and whole-program passes."""

    #: Stable kebab-case identifier used in reports and suppressions.
    name: str = ""
    #: Short code (``R001``/``P101``-style) for docs tables.
    code: str = ""
    #: One-line human description.
    description: str = ""

    def check(self, ctx) -> Iterator[Violation]:
        """Yield violations for one module (see ``engine.ModuleContext``)."""
        return iter(())

    def check_program(self, index) -> Iterator[Violation]:
        """Yield violations over the whole program's index."""
        return iter(())

    def violation(
        self, path: str, node: Union[ast.AST, int], message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node`` (or a line no)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Violation(path=path, line=line, col=col, rule=self.name, message=message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to the registry."""
    if not cls.name or not cls.code:
        raise ValueError(f"rule {cls.__name__} must define 'name' and 'code'")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def rule_names() -> List[str]:
    """All registered rule and pass names, sorted."""
    _load_builtin_rules()
    return sorted(_REGISTRY)


def get_rule_class(name: str) -> Type[Rule]:
    """Look up one registered rule class by name."""
    _load_builtin_rules()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown rule {name!r}; known rules: {', '.join(sorted(_REGISTRY))}"
        ) from None


def create_rules() -> List[Rule]:
    """One instance of every registered rule and pass, sorted by name."""
    return [get_rule_class(name)() for name in rule_names()]


def _load_builtin_rules() -> None:
    """Import the built-in rule modules so their ``@register`` runs."""
    # Imported for the side effect alone: each module's ``@register``.
    from . import rules  # repro-lint: disable=unused-import
    from .program import passes  # repro-lint: disable=unused-import
