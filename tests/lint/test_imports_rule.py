"""Tests for the unused-import rule (R010)."""

import pytest

RULE = "unused-import"


class TestPositives:
    @pytest.mark.parametrize(
        "source, name",
        [
            ("import os", "os"),
            ("import os.path", "os"),
            ("import numpy as np", "np"),
            ("from typing import Optional", "Optional"),
            ("from .shard import ShardInfo as Info", "Info"),
        ],
    )
    def test_unread_module_import(self, lint_source, source, name):
        violations = lint_source(RULE, source)
        assert len(violations) == 1
        assert violations[0].rule == RULE
        assert repr(name) in violations[0].message

    def test_one_finding_per_unread_name(self, lint_source):
        source = """
            from typing import Dict, List, Optional

            def f() -> Dict:
                return {}
        """
        violations = lint_source(RULE, source)
        assert sorted(v.message.split("'")[1] for v in violations) == [
            "List",
            "Optional",
        ]
        assert {v.line for v in violations} == {2}

    def test_local_import_read_only_elsewhere(self, lint_source):
        # A function-scope import binds a local name: another function
        # reading the same name does not read this binding.
        source = """
            def load():
                import hashlib
                return 1

            def digest(data):
                return hashlib.sha256(data)
        """
        violations = lint_source(RULE, source)
        assert len(violations) == 1
        assert violations[0].line == 3

    def test_checked_outside_src_too(self, lint_source):
        assert len(lint_source(RULE, "import pytest", path="tests/test_x.py")) == 1


class TestNegatives:
    @pytest.mark.parametrize(
        "source",
        [
            "from __future__ import annotations",
            "import os\nprint(os.sep)",
            "import os.path\nos.path.join('a', 'b')",
            "from typing import Optional\nx: Optional[int] = None",
            "from .store import Store\ndef f() -> 'Store':\n    return None",
            "from .store import Store\ndef f(s: 'list[Store]'):\n    pass",
            "from .store import Store\n__all__ = ['Store']",
            "import numpy as np\ndef f():\n    return np.zeros(1)",
            "def f():\n    import numpy as np\n    def g():\n        return np\n    return g",
            "from . import rules  # repro-lint: disable=unused-import",
            "from x import *",
        ],
    )
    def test_read_or_exempt_names_are_clean(self, lint_source, source):
        assert lint_source(RULE, source) == []

    def test_package_init_reexports_are_clean(self, lint_source):
        source = "from .store import EmbeddingStore\nimport os"
        assert lint_source(RULE, source, path="src/repro/store/__init__.py") == []

    def test_unparsable_string_annotation_is_not_a_read(self, lint_source):
        source = """
            from .store import Store

            def f() -> "not an expression (":
                return None
        """
        assert len(lint_source(RULE, source)) == 1
