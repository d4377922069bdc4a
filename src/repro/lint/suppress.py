"""Inline suppression directives.

One form is recognized, as a comment:
``# repro-lint: disable=<rule>[,<rule>...]`` suppresses the named rules
for violations reported **on that physical line** (put it at the end of
the offending line, or on the first line of a multi-line statement,
which is where violations anchor).  There is no file-wide form and no
rule name that matches every rule.  Per the project's lint policy,
every suppression should carry a justifying comment next to it.
"""

from __future__ import annotations

import re
from typing import Dict, Set

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable\s*=\s*(?P<rules>[A-Za-z0-9_\-, ]+)"
)


class Suppressions:
    """Parsed suppression directives for one source file."""

    def __init__(self) -> None:
        self.by_line: Dict[int, Set[str]] = {}

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is suppressed for a violation on ``line``."""
        return rule in self.by_line.get(line, ())

    @classmethod
    def from_source(cls, source: str) -> "Suppressions":
        """Scan ``source`` for ``# repro-lint:`` directives."""
        suppressions = cls()
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "repro-lint" not in text:
                continue
            match = _DIRECTIVE.search(text)
            if match is None:
                continue
            rules = {part.strip() for part in match.group("rules").split(",")}
            rules.discard("")
            if rules:
                suppressions.by_line.setdefault(lineno, set()).update(rules)
        return suppressions
