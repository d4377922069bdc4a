"""The lint engine: file discovery, parsing, and rule execution."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .registry import Rule, create_rules
from .suppress import Suppressions
from .violations import Severity, Violation

#: Directory names never descended into during discovery.
EXCLUDED_DIRS = {
    "__pycache__",
    ".git",
    ".hg",
    ".mypy_cache",
    ".pytest_cache",
    ".tox",
    ".venv",
    "venv",
    "build",
    "dist",
}

#: Marker file: a directory containing it is pruned during directory
#: walks (used by the known-bad fixture corpora under tests/lint).
#: Starting discovery *inside* such a directory still works — only
#: markers strictly below the walked root apply.
IGNORE_MARKER = ".repro-lint-ignore"


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def error_count(self) -> int:
        return sum(1 for v in self.violations if v.severity >= Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for v in self.violations if v.severity == Severity.WARNING)

    def exit_code(self, strict: bool = False) -> int:
        """0 when clean; 1 when errors (or, under strict, warnings) exist.

        Baselined violations never fail the run: they are tolerated
        debt, visible in reports until the baseline ratchets down.
        """
        if self.error_count:
            return 1
        if strict and any(
            v.severity == Severity.WARNING and not v.baselined
            for v in self.violations
        ):
            return 1
        return 0


def _is_excluded(path: Path) -> bool:
    """Whether ``path`` sits under an excluded/egg-info directory."""
    if set(path.parts) & EXCLUDED_DIRS:
        return True
    return any(part.endswith(".egg-info") for part in path.parts)


def _under_ignore_marker(candidate: Path, root: Path) -> bool:
    """Whether an ancestor of ``candidate`` below ``root`` is marked."""
    for ancestor in candidate.parents:
        if ancestor == root:
            return False
        if (ancestor / IGNORE_MARKER).exists():
            return True
    return False


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand ``paths`` (files or directories) into sorted ``.py`` files.

    All candidates — including files passed directly — go through the
    same ``EXCLUDED_DIRS``/``.egg-info`` filters, and overlapping path
    arguments (``src src/repro`` or relative/absolute spellings of the
    same file) are deduplicated by resolved path.
    """
    found: List[Path] = []
    seen = set()
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if _is_excluded(candidate) or _under_ignore_marker(candidate, path):
                    continue
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    found.append(candidate)
        elif path.suffix == ".py":
            if _is_excluded(path):
                continue
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                found.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(found)


class Linter:
    """Runs a set of rules over files and collects violations."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        root: Optional[Path] = None,
    ) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else create_rules()
        self.root = root if root is not None else Path.cwd()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def lint_files(self, files: Sequence[Path]) -> LintResult:
        """Lint an explicit file list (already discovered/filtered)."""
        result = LintResult()
        for file_path in files:
            result.files_checked += 1
            result.violations.extend(self.lint_file(file_path))
        result.violations.sort()
        return result

    def lint_file(self, path: Path) -> List[Violation]:
        """Lint one file from disk."""
        source = path.read_text(encoding="utf-8")
        return self.lint_source(source, path=path)

    def lint_source(self, source: str, path: Optional[Path] = None) -> List[Violation]:
        """Lint source text (``path`` used only for display/scoping)."""
        path = path if path is not None else Path("<string>")
        display = self._display_path(path)
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            return [
                Violation(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="syntax-error",
                    message=f"cannot parse file: {exc.msg}",
                    severity=Severity.ERROR,
                )
            ]
        ctx = ModuleContext(
            path=path,
            display_path=display,
            source=source,
            tree=tree,
            suppressions=Suppressions.from_source(source),
        )
        violations: List[Violation] = []
        for rule in self.rules:
            for violation in rule.check(ctx):
                if ctx.suppressions.is_suppressed(violation.rule, violation.line):
                    continue
                violations.append(violation)
        return violations

    def _display_path(self, path: Path) -> str:
        try:
            return str(path.resolve().relative_to(self.root.resolve()))
        except ValueError:
            return str(path)
