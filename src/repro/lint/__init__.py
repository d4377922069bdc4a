"""AST-based correctness linter for the PKGM training stack.

Static companion to the runtime numeric sanitizer
(:mod:`repro.nn.sanitizer`).  The framework is a rule registry
(:mod:`repro.lint.registry`), an engine that parses each file once and
runs every enabled rule over it (:mod:`repro.lint.engine`), inline
suppressions (``# repro-lint: disable=<rule>``,
:mod:`repro.lint.suppress`), and text/JSON reporters.

Run it as ``python -m repro.lint <paths>`` or ``repro lint <paths>``;
extend it by subclassing :class:`~repro.lint.registry.Rule` and
decorating with :func:`~repro.lint.registry.register`.
"""

from .engine import Linter, LintResult
from .suppress import Suppressions
from .violations import Severity, Violation

__all__ = [
    "LintResult",
    "Linter",
    "Severity",
    "Suppressions",
    "Violation",
]
