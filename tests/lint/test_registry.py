"""Tests for the one registry of per-file rules and program passes."""

import pytest

from repro.lint.registry import Rule, create_rules, get_rule_class, rule_names

EXPECTED_RULES = {
    "unseeded-randomness",
    "mutable-default-arg",
    "tensor-inplace-grad",
    "bare-except",
    "export-drift",
    "no-print-in-src",
    "no-pickle-in-src",
    "determinism-taint",
    "concurrent-mutation",
    "signature-mismatch",
    "unresolved-import",
    "unused-export",
}


class TestRegistry:
    def test_builtin_rules_registered(self):
        assert set(rule_names()) == EXPECTED_RULES

    def test_rule_codes_unique(self):
        codes = [get_rule_class(name).code for name in rule_names()]
        assert len(codes) == len(set(codes))

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rule_class("no-such-rule")

    def test_create_rules_builds_every_rule_and_pass(self):
        rules = create_rules()
        assert [rule.name for rule in rules] == rule_names()
        assert all(isinstance(rule, Rule) for rule in rules)

    def test_rules_take_no_options(self):
        # A rule's scope is a module constant: nothing configures one.
        for rule in create_rules():
            assert not hasattr(rule, "configure")
            assert vars(rule) == {}
