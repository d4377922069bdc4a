"""Tests for attribute-implication rule mining and completion."""

import numpy as np
import pytest

from repro.kg import Rule, RuleCompleter, RuleMiner, TripleStore


def implication_store():
    """10 items: relation 0 value determines relation 1 value."""
    triples = []
    for item in range(10):
        group = item % 2
        triples.append((item, 0, 100 + group))  # body: two possible values
        triples.append((item, 1, 200 + group))  # head: determined by body
        triples.append((item, 2, 300 + item))  # noise: unique values
    return TripleStore(triples)


class TestRuleMiner:
    def test_finds_deterministic_implication(self):
        rules = RuleMiner(min_support=3, min_confidence=0.9).mine(implication_store())
        found = {
            (r.body_relation, r.body_value, r.head_relation, r.head_value)
            for r in rules
        }
        assert (0, 100, 1, 200) in found
        assert (0, 101, 1, 201) in found

    def test_confidence_and_support_values(self):
        rules = RuleMiner(min_support=2, min_confidence=0.5).mine(implication_store())
        rule = next(
            r for r in rules if (r.body_relation, r.body_value) == (0, 100)
            and r.head_relation == 1
        )
        assert rule.support == 5
        assert rule.confidence == pytest.approx(1.0)

    def test_no_same_relation_rules(self):
        rules = RuleMiner(min_support=1, min_confidence=0.1).mine(implication_store())
        assert all(r.body_relation != r.head_relation for r in rules)

    def test_min_support_filters(self):
        # Unique noise values can never reach support 2 as bodies.
        rules = RuleMiner(min_support=2, min_confidence=0.1).mine(implication_store())
        assert all(r.body_relation != 2 for r in rules)

    def test_low_confidence_filtered(self):
        # Make relation 0 -> relation 1 only 60% consistent.
        triples = []
        for item in range(10):
            triples.append((item, 0, 100))
            triples.append((item, 1, 200 if item < 6 else 201))
        store = TripleStore(triples)
        strict = RuleMiner(min_support=2, min_confidence=0.7).mine(store)
        assert not any(
            r.head_relation == 1 and r.head_value == 200 for r in strict
        )
        loose = RuleMiner(min_support=2, min_confidence=0.5).mine(store)
        assert any(r.head_value == 200 for r in loose)

    def test_sorted_by_confidence(self):
        rules = RuleMiner(min_support=1, min_confidence=0.1).mine(implication_store())
        confidences = [r.confidence for r in rules]
        assert confidences == sorted(confidences, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            RuleMiner(min_support=0)
        with pytest.raises(ValueError):
            RuleMiner(min_confidence=0.0)

    def test_rule_str(self):
        rule = Rule(0, 100, 1, 200, support=5, confidence=1.0)
        assert "=>" in str(rule)


class TestRuleCompleter:
    @pytest.fixture
    def completer(self):
        rules = RuleMiner(min_support=3, min_confidence=0.9).mine(implication_store())
        return RuleCompleter(rules)

    def test_predicts_missing_value(self, completer):
        # Item 20 has only the body fact; predict the head.
        store = TripleStore([(20, 0, 100)])
        predictions = completer.predict(store, 20, 1)
        assert predictions
        assert predictions[0][0] == 200

    def test_no_prediction_without_matching_body(self, completer):
        store = TripleStore([(20, 2, 300)])
        assert completer.predict(store, 20, 1) == []

    def test_votes_accumulate_confidence(self):
        rules = [
            Rule(0, 100, 1, 200, support=3, confidence=0.9),
            Rule(2, 300, 1, 200, support=3, confidence=0.8),
            Rule(3, 400, 1, 201, support=3, confidence=0.95),
        ]
        completer = RuleCompleter(rules)
        store = TripleStore([(7, 0, 100), (7, 2, 300), (7, 3, 400)])
        predictions = completer.predict(store, 7, 1)
        # 200 gets 1.7 votes, 201 gets 0.95.
        assert predictions[0] == (200, pytest.approx(1.7))

    def test_num_rules(self, completer):
        assert completer.num_rules > 0


class TestRuleCompleterHardening:
    """Edge cases the explanation service leans on: empty rule sets,
    retired relations, and deterministic tie-breaks."""

    def test_empty_rule_set_is_valid(self):
        completer = RuleCompleter([])
        store = TripleStore([(0, 0, 100)])
        assert completer.num_rules == 0
        assert completer.rules == []
        assert completer.head_relations() == []
        assert completer.predict(store, 0, 1) == []
        assert completer.supporting_rules(store, 0, 1, 200) == []

    def test_duplicate_signatures_collapse_to_best(self):
        weak = Rule(0, 100, 1, 200, support=3, confidence=0.7)
        strong = Rule(0, 100, 1, 200, support=5, confidence=0.9)
        for ordering in ([weak, strong], [strong, weak]):
            completer = RuleCompleter(ordering)
            assert completer.num_rules == 1
            assert completer.rules[0].confidence == pytest.approx(0.9)
            assert completer.rules[0].support == 5

    def test_prune_drops_retired_relations(self):
        rules = [
            Rule(0, 100, 1, 200, support=3, confidence=0.9),
            Rule(2, 300, 1, 201, support=3, confidence=0.8),  # retired body
            Rule(0, 100, 3, 400, support=3, confidence=0.8),  # retired head
        ]
        pruned = RuleCompleter(rules).prune({0, 1})
        assert pruned.num_rules == 1
        assert pruned.rules[0].signature == (0, 100, 1, 200)
        # The original completer is untouched.
        assert RuleCompleter(rules).num_rules == 3

    def test_prune_to_nothing(self):
        rules = [Rule(0, 100, 1, 200, support=3, confidence=0.9)]
        pruned = RuleCompleter(rules).prune([])
        assert pruned.num_rules == 0
        assert pruned.predict(TripleStore([(0, 0, 100)]), 0, 1) == []

    def test_rule_order_invariant_under_shuffle(self):
        mined = RuleMiner(min_support=1, min_confidence=0.1).mine(
            implication_store()
        )
        reference = RuleCompleter(mined).rules
        rng = np.random.default_rng(3)
        for _ in range(5):
            shuffled = list(mined)
            rng.shuffle(shuffled)
            assert RuleCompleter(shuffled).rules == reference

    def test_confidence_ties_break_to_lowest_ids(self):
        tied = [
            Rule(5, 100, 1, 210, support=3, confidence=0.8),
            Rule(2, 101, 1, 205, support=3, confidence=0.8),
            Rule(2, 100, 1, 204, support=3, confidence=0.8),
        ]
        ordered = RuleCompleter(tied).rules
        signatures = [r.signature for r in ordered]
        assert signatures == sorted(signatures)

    def test_predict_vote_ties_break_to_lowest_value(self):
        rules = [
            Rule(0, 100, 1, 205, support=3, confidence=0.8),
            Rule(0, 100, 1, 204, support=3, confidence=0.8),
        ]
        store = TripleStore([(7, 0, 100)])
        predictions = RuleCompleter(rules).predict(store, 7, 1)
        assert [value for value, _ in predictions] == [204, 205]

    def test_supporting_rules_cite_concrete_triples(self):
        rules = [
            Rule(0, 100, 1, 200, support=3, confidence=0.9),
            Rule(2, 300, 1, 200, support=3, confidence=0.8),
            Rule(3, 400, 1, 201, support=3, confidence=0.95),
        ]
        store = TripleStore([(7, 0, 100), (7, 2, 300), (7, 3, 400)])
        support = RuleCompleter(rules).supporting_rules(store, 7, 1, 200)
        assert [rule.signature for rule, _ in support] == [
            (0, 100, 1, 200),
            (2, 300, 1, 200),
        ]
        for rule, (head, relation, tail) in support:
            assert head == 7
            assert (relation, tail) == (rule.body_relation, rule.body_value)
            assert (head, relation, tail) in store
