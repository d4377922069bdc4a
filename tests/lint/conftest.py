"""Shared helpers for the lint test suite."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import Linter
from repro.lint.registry import get_rule_class

#: Root of the seeded known-bad fixture corpus.
FIXTURES = Path(__file__).parent / "fixtures"


def lint_root(root, select=None):
    """Lint every file under ``root`` (paths relative to it) with every
    rule, or only the rules named in ``select``."""
    rules = [get_rule_class(rule)() for rule in select] if select else None
    return Linter(rules=rules, root=root).lint_paths([root])


@pytest.fixture
def fixture_corpus():
    """Path factory for the known-bad programs under ``fixtures/``."""

    def _corpus(name):
        root = FIXTURES / name
        assert root.is_dir(), f"missing fixture corpus {name!r}"
        return root

    return _corpus


@pytest.fixture
def analyze_corpus(fixture_corpus):
    """Lint one fixture corpus with every rule, or only ``select``.

    Each corpus is linted on its own (they all define a ``repro``
    package, so mixing them would collide on module names).  Returns
    the LintResult; paths are relative to the corpus root.
    """

    def _analyze(name, select=None):
        return lint_root(fixture_corpus(name), select)

    return _analyze


@pytest.fixture
def lint_source():
    """Lint a source snippet with a single named rule; returns violations.

    Usage: ``lint_source("unseeded-randomness", code, path="mod.py")``.
    """

    def _lint(rule_name, source, path="module.py"):
        linter = Linter(rules=[get_rule_class(rule_name)()])
        return linter.lint_source(textwrap.dedent(source), Path(path))

    return _lint


@pytest.fixture
def lint_tree(tmp_path):
    """Lint ``{relative path: source}`` written under a temp root.

    Every directory below ``src/`` gets an ``__init__.py``, so a file
    at ``src/repro/stream/x.py`` is the module ``repro.stream.x`` and
    the whole-program passes see it where the path says.  Returns the
    LintResult, paths relative to the temp root.
    """

    def _lint(files, select=None):
        for relative, source in files.items():
            target = tmp_path / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        for package in sorted((tmp_path / "src").rglob("*")):
            if package.is_dir() and not (package / "__init__.py").exists():
                (package / "__init__.py").write_text("")
        return lint_root(tmp_path, select)

    return _lint
