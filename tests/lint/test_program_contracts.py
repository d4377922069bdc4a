"""Cross-module contract passes over the seeded ``contracts`` corpus.

``repro.client`` imports a name its package never binds, calls ``load``
with an unknown keyword, and calls ``save`` without its required
``payload``; ``helper`` is exported by ``repro.api`` but never used.
"""

import pytest


@pytest.fixture
def result(analyze_corpus):
    return analyze_corpus("contracts")


def by_rule(result, rule):
    return [v for v in result.violations if v.rule == rule]


class TestUnresolvedImport:
    def test_missing_name_flagged(self, result):
        [violation] = by_rule(result, "unresolved-import")
        assert violation.path == "src/repro/client.py"
        assert "missing_name" in violation.message
        assert "never binds" in violation.message

    def test_resolvable_reexports_clean(self, result):
        messages = " ".join(v.message for v in by_rule(result, "unresolved-import"))
        assert "'load'" not in messages
        assert "'save'" not in messages


class TestSignatureMismatch:
    def test_unknown_keyword(self, result):
        [unknown] = [
            v
            for v in by_rule(result, "signature-mismatch")
            if "retries" in v.message
        ]
        # Resolved through the package re-export to the implementation.
        assert "repro.api.impl.load()" in unknown.message
        assert (unknown.path, unknown.line) == ("src/repro/client.py", 7)

    def test_missing_required_argument(self, result):
        [missing] = [
            v
            for v in by_rule(result, "signature-mismatch")
            if "missing required" in v.message
        ]
        assert "repro.api.impl.save()" in missing.message
        assert "payload" in missing.message

    def test_valid_keyword_call_clean(self, result):
        # load("snapshot.npz", strict=True) matches the signature; only
        # the two seeded mismatches may surface.
        assert len(by_rule(result, "signature-mismatch")) == 2


class TestUnusedExport:
    def test_unused_all_entry_flagged(self, result):
        [unused] = by_rule(result, "unused-export")
        assert "'helper'" in unused.message
        assert unused.path == "src/repro/api/__init__.py"

    def test_imported_exports_not_flagged(self, result):
        messages = " ".join(v.message for v in by_rule(result, "unused-export"))
        assert "'load'" not in messages
        assert "'save'" not in messages


class TestCorpusTotals:
    def test_exact_violation_budget(self, result):
        assert len(result.violations) == 4
        assert result.exit_code() == 1
