"""Tests for the text report and the exit code of a lint result."""

from repro.lint import LintResult, Violation


def _result():
    return LintResult(
        violations=[
            Violation(
                path="src/a.py",
                line=3,
                col=4,
                rule="mutable-default-arg",
                message="shared default",
            ),
            Violation(
                path="src/b.py",
                line=10,
                col=0,
                rule="bare-except",
                message="swallowed",
            ),
        ],
        files_checked=2,
    )


class TestTextReporter:
    def test_renders_lines_and_summary(self):
        out = _result().report()
        assert "src/a.py:3:4: [mutable-default-arg] shared default" in out
        assert out.endswith("checked 2 files: 2 finding(s)")

    def test_clean_result(self):
        out = LintResult(files_checked=1).report()
        assert out == "checked 1 file: 0 finding(s)"


class TestLookupAndExitCodes:
    def test_exit_codes(self):
        assert _result().exit_code() == 1
        # Every finding fails: there is no severity to demote one.
        swallowed_only = LintResult(violations=_result().violations[1:], files_checked=1)
        assert swallowed_only.exit_code() == 1
        assert LintResult(files_checked=1).exit_code() == 0
