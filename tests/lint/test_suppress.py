"""Tests for inline ``# repro-lint:`` suppression directives."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import Linter, Suppressions
from repro.lint.registry import get_rule_class


def _lint(source, rule_name="mutable-default-arg"):
    linter = Linter(rules=[get_rule_class(rule_name)()])
    return linter.lint_source(textwrap.dedent(source), Path("module.py"))


class TestParsing:
    def test_line_directive(self):
        supp = Suppressions.from_source("x = 1  # repro-lint: disable=my-rule\n")
        assert supp.is_suppressed("my-rule", 1)
        assert not supp.is_suppressed("my-rule", 2)
        assert not supp.is_suppressed("other-rule", 1)

    def test_multiple_rules_one_directive(self):
        supp = Suppressions.from_source(
            "x = 1  # repro-lint: disable=rule-a, rule-b\n"
        )
        assert supp.is_suppressed("rule-a", 1)
        assert supp.is_suppressed("rule-b", 1)
        assert not supp.is_suppressed("rule-c", 1)

    def test_unrelated_comments_ignored(self):
        supp = Suppressions.from_source("# plain comment mentioning repro-lint\n")
        assert not supp.is_suppressed("my-rule", 1)


class TestEngineIntegration:
    def test_line_suppression_silences_violation(self):
        violations = _lint(
            """
            def f(acc=[]):  # repro-lint: disable=mutable-default-arg
                return acc
            """
        )
        assert violations == []

    def test_line_suppression_is_line_scoped(self):
        violations = _lint(
            """
            def f(acc=[]):  # repro-lint: disable=mutable-default-arg
                return acc

            def g(acc=[]):
                return acc
            """
        )
        assert len(violations) == 1
        assert violations[0].line == 5

    @pytest.mark.parametrize(
        "directive",
        [
            "# repro-lint: disable-file=mutable-default-arg",
            "# repro-lint: disable=all",
        ],
    )
    def test_file_and_all_forms_suppress_nothing(self, directive):
        """Only ``disable=<rule>`` on the offending line silences it."""
        violations = _lint(
            f"""
            def f(acc=[]):  {directive}
                return acc
            """
        )
        assert [violation.line for violation in violations] == [2]

    def test_wrong_rule_name_does_not_suppress(self):
        violations = _lint(
            """
            def f(acc=[]):  # repro-lint: disable=unseeded-randomness
                return acc
            """
        )
        assert len(violations) == 1
