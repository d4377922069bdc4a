"""The lint engine: file discovery, one parse per file, every rule.

Each file is read and parsed once.  The per-file rules run on that
tree, and the same tree is reduced to a
:class:`~repro.lint.program.summary.ModuleSummary`; the summaries of
every file build one :class:`~repro.lint.program.index.ProgramIndex`,
over which the whole-program passes run.  Inline suppressions apply to
both kinds of finding alike.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .program.index import ProgramIndex
from .program.summary import ModuleSummary, module_name_for, summarize_tree
from .registry import Rule, create_rules
from .suppress import Suppressions
from .violations import Violation

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
    """Everything a per-file rule needs to know about one parsed module."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    summary: ModuleSummary

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0

    def report(self) -> str:
        """One ``path:line:col: [rule] message`` line each, then a total."""
        lines = [violation.format() for violation in self.violations]
        noun = "file" if self.files_checked == 1 else "files"
        lines.append(
            f"checked {self.files_checked} {noun}: "
            f"{len(self.violations)} finding(s)"
        )
        return "\n".join(lines)

    def exit_code(self) -> int:
        """0 when clean; 1 when there is any finding at all."""
        return 1 if self.violations else 0


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

    A path that does not exist raises :class:`FileNotFoundError`.  All
    candidates — including files passed directly — go through the
    same ``EXCLUDED_DIRS``/``.egg-info`` filters, and overlapping path
    arguments (``src src/repro`` or relative/absolute spellings of the
    same file) are deduplicated by resolved path.
    """
    found: List[Path] = []
    seen = set()
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_dir():
            candidates = [
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not _under_ignore_marker(candidate, path)
            ]
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            resolved = candidate.resolve()
            if not _is_excluded(candidate) and resolved not in seen:
                seen.add(resolved)
                found.append(candidate)
    return sorted(found)


def _syntax_error(display: str, line: int, col: int, message: str) -> Violation:
    return Violation(
        path=display, line=line, col=col, rule="syntax-error", message=message
    )


class Linter:
    """Runs every rule and program pass over a set of files."""

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
    def lint_paths(self, paths: Sequence[Path]) -> LintResult:
        """Discover the ``.py`` files under ``paths`` and lint them."""
        return self.lint_files(discover_files(paths))

    def lint_files(self, files: Sequence[Path]) -> LintResult:
        """Lint an explicit file list (already discovered/filtered)."""
        return self._lint([(path, path.read_bytes()) for path in files])

    def lint_source(self, source: str, path: Optional[Path] = None) -> List[Violation]:
        """Lint source text as a one-module program (``path`` names it)."""
        path = path if path is not None else Path("<string>")
        return self._lint([(path, source.encode("utf-8"))]).violations

    # ------------------------------------------------------------------
    # The one pass
    # ------------------------------------------------------------------
    def _lint(self, files: Sequence[Tuple[Path, bytes]]) -> LintResult:
        violations: List[Violation] = []
        summaries: List[ModuleSummary] = []
        suppressions: Dict[str, Suppressions] = {}
        for path, data in files:
            display = self._display_path(path)
            try:
                source = data.decode("utf-8")
                tree = ast.parse(source, filename=display)
            except UnicodeDecodeError as exc:
                line = data[: exc.start].count(b"\n") + 1
                message = f"cannot decode file as UTF-8: {exc.reason}"
                violations.append(_syntax_error(display, line, 0, message))
                continue
            except SyntaxError as exc:
                message = f"cannot parse file: {exc.msg}"
                line, col = exc.lineno or 1, (exc.offset or 1) - 1
                violations.append(_syntax_error(display, line, col, message))
                continue
            suppressions[display] = Suppressions.from_source(source)
            module, is_package = module_name_for(path)
            summary = summarize_tree(module, display, tree, is_package)
            summaries.append(summary)
            ctx = ModuleContext(path, display, source, tree, summary)
            for rule in self.rules:
                violations.extend(rule.check(ctx))
        index = ProgramIndex(summaries)
        for rule in self.rules:
            violations.extend(rule.check_program(index))
        kept = [
            violation
            for violation in violations
            if violation.path not in suppressions
            or not suppressions[violation.path].is_suppressed(
                violation.rule, violation.line
            )
        ]
        return LintResult(violations=sorted(kept), files_checked=len(files))

    def _display_path(self, path: Path) -> str:
        try:
            return str(path.resolve().relative_to(self.root.resolve()))
        except ValueError:
            return str(path)
