"""AST-based correctness linter for the PKGM training stack.

Static companion to the runtime numeric sanitizer
(:mod:`repro.nn.sanitizer`).  One engine (:mod:`repro.lint.engine`)
parses each file once, runs every per-file rule on the tree, and
feeds the same tree to the whole-program passes
(:mod:`repro.lint.program`); rules and passes share one registry
(:mod:`repro.lint.registry`).  Inline suppressions
(``# repro-lint: disable=<rule>``, :mod:`repro.lint.suppress`) are
the only way to silence a finding, and every finding fails the run.

Run it as ``python -m repro.lint <paths>``; extend it by subclassing
:class:`~repro.lint.registry.Rule` and decorating with
:func:`~repro.lint.registry.register`.
"""

from .engine import Linter, LintResult
from .suppress import Suppressions
from .violations import Violation

__all__ = [
    "LintResult",
    "Linter",
    "Suppressions",
    "Violation",
]
