"""Positive/negative fixtures for the unseeded-randomness rule (R001)."""

RULE = "unseeded-randomness"


class TestPositives:
    def test_stdlib_module_call(self, lint_source):
        violations = lint_source(
            RULE,
            """
            import random

            def pick():
                return random.random()
            """,
        )
        assert len(violations) == 1
        assert violations[0].rule == RULE
        assert "random.random()" in violations[0].message

    def test_stdlib_from_import(self, lint_source):
        violations = lint_source(
            RULE,
            """
            from random import shuffle

            def mix(items):
                shuffle(items)
            """,
        )
        assert len(violations) == 1
        assert "shuffle" in violations[0].message

    def test_numpy_global_rng(self, lint_source):
        violations = lint_source(
            RULE,
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
        )
        assert len(violations) == 1
        assert "default_rng" in violations[0].message

    def test_numpy_seed_call_is_flagged(self, lint_source):
        violations = lint_source(
            RULE,
            """
            import numpy as np

            np.random.seed(0)
            """,
        )
        assert len(violations) == 1

    def test_numpy_random_module_alias(self, lint_source):
        violations = lint_source(
            RULE,
            """
            import numpy.random as npr

            def noise():
                return npr.standard_normal(3)
            """,
        )
        assert len(violations) == 1

    def test_from_numpy_random_import(self, lint_source):
        violations = lint_source(
            RULE,
            """
            from numpy.random import rand

            def noise():
                return rand(4)
            """,
        )
        assert len(violations) == 1


class TestNegatives:
    def test_default_rng_is_fine(self, lint_source):
        violations = lint_source(
            RULE,
            """
            import numpy as np

            def noise(seed):
                rng = np.random.default_rng(seed)
                return rng.standard_normal(3)
            """,
        )
        assert violations == []

    def test_explicit_random_instance_is_fine(self, lint_source):
        violations = lint_source(
            RULE,
            """
            import random

            def pick(seed):
                return random.Random(seed).random()
            """,
        )
        assert violations == []

    def test_unrelated_attribute_call_is_fine(self, lint_source):
        violations = lint_source(
            RULE,
            """
            import numpy as np

            def mean(x):
                return np.mean(x)
            """,
        )
        assert violations == []
