"""Tests for the no-print-in-src rule (R008)."""

RULE = "no-print-in-src"
LIB_PATH = "src/repro/core/trainer.py"


class TestScope:
    def test_flags_print_in_library_code(self, lint_source):
        source = """
            def train():
                print("epoch done")
        """
        violations = lint_source(RULE, source, path=LIB_PATH)
        assert len(violations) == 1
        assert violations[0].rule == RULE

    def test_ignores_code_outside_src(self, lint_source):
        source = """
            print("debugging a test")
        """
        assert lint_source(RULE, source, path="tests/test_thing.py") == []
        assert lint_source(RULE, source, path="examples/demo.py") == []

    def test_cli_modules_are_allowlisted(self, lint_source):
        source = """
            def main():
                print("table row")
        """
        for path in ("src/repro/cli.py", "src/repro/lint/cli.py"):
            assert lint_source(RULE, source, path=path) == []


class TestPrecision:
    def test_print_as_value_is_not_flagged(self, lint_source):
        source = """
            def build_logger(verbose):
                log = print if verbose else (lambda *_: None)
                return log
        """
        assert lint_source(RULE, source, path=LIB_PATH) == []

    def test_method_named_print_is_not_flagged(self, lint_source):
        source = """
            def render(report):
                report.print()
        """
        assert lint_source(RULE, source, path=LIB_PATH) == []

    def test_every_call_site_reported(self, lint_source):
        source = """
            def noisy():
                print("a")
                print("b")
        """
        assert len(lint_source(RULE, source, path=LIB_PATH)) == 2
