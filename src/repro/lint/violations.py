"""The one finding type every lint rule reports."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a rule, a location, and a message.  Every one fails."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Render as ``path:line:col: [rule] message``."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
