"""Tests for the no-pickle-in-src rule (R009)."""

import pytest

RULE = "no-pickle-in-src"
LIB_PATH = "src/repro/serving/protocol.py"


class TestPositives:
    @pytest.mark.parametrize(
        "source",
        [
            "import pickle",
            "import pickle as wire",
            "import os, pickle",
            "from pickle import loads",
            "from pickle import dumps as encode, loads",
            "def load():\n    import pickle\n    return pickle",
        ],
    )
    def test_pickle_imports(self, lint_source, source):
        violations = lint_source(RULE, source, path=LIB_PATH)
        assert len(violations) == 1
        assert violations[0].rule == RULE
        assert "pickle" in violations[0].message

    def test_allow_pickle_true(self, lint_source):
        source = """
            import numpy as np

            def load(path):
                return np.load(path, allow_pickle=True)
        """
        violations = lint_source(RULE, source, path="src/repro/store/layout.py")
        assert len(violations) == 1
        assert violations[0].line == 5
        assert "np.load" in violations[0].message


class TestNegatives:
    def test_ignores_code_outside_src(self, lint_source):
        source = """
            import pickle
            from pickle import loads
            data = np.load(path, allow_pickle=True)
        """
        assert lint_source(RULE, source, path="tests/serving/test_pool.py") == []
        assert lint_source(RULE, source, path="perf/workloads/online_pool.py") == []

    @pytest.mark.parametrize(
        "source",
        [
            "import pickletools",
            "from picklers import loads",
            "from . import pickle",
            "data = np.load(path, allow_pickle=False)",
            "data = np.load(path)",
            "allow_pickle = True",
            "# import pickle",
            "NOTE = 'import pickle'",
        ],
    )
    def test_near_misses_are_clean(self, lint_source, source):
        assert lint_source(RULE, source, path=LIB_PATH) == []
