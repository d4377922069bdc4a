"""Positive/negative fixtures for the bare-except rule (R005)."""

RULE = "bare-except"


class TestPositives:
    def test_bare_except_is_error(self, lint_source):
        violations = lint_source(
            RULE,
            """
            def load(path):
                try:
                    return open(path)
                except:
                    return None
            """,
        )
        assert len(violations) == 1
        assert "bare" in violations[0].message

    def test_swallowed_exception_warns_outside_hot_paths(self, lint_source):
        # Every finding fails: a swallowed error outside the training
        # core is reported just as one inside it is.
        violations = lint_source(
            RULE,
            """
            def load(path):
                try:
                    return open(path)
                except OSError:
                    pass
            """,
            path="src/repro/analysis/plots.py",
        )
        assert len(violations) == 1
        assert "swallows" in violations[0].message

    def test_swallowed_exception_errors_in_hot_paths(self, lint_source):
        violations = lint_source(
            RULE,
            """
            def step():
                try:
                    work()
                except ValueError:
                    ...
            """,
            path="src/repro/core/trainer.py",
        )
        assert len(violations) == 1
        assert "swallows" in violations[0].message

    def test_continue_only_handler_is_swallowed(self, lint_source):
        violations = lint_source(
            RULE,
            """
            def drain(items):
                for item in items:
                    try:
                        item.close()
                    except OSError:
                        continue
            """,
        )
        assert len(violations) == 1


class TestNegatives:
    def test_handler_that_logs_is_fine(self, lint_source):
        violations = lint_source(
            RULE,
            """
            def load(path, log):
                try:
                    return open(path)
                except OSError as exc:
                    log.warning("failed: %s", exc)
                    return None
            """,
        )
        assert violations == []

    def test_handler_that_reraises_is_fine(self, lint_source):
        violations = lint_source(
            RULE,
            """
            def step():
                try:
                    work()
                except ValueError as exc:
                    raise RuntimeError("step failed") from exc
            """,
        )
        assert violations == []
