"""Property-based tests for rule mining invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import RuleMiner, TripleStore


triples_strategy = st.lists(
    st.tuples(
        st.integers(0, 10),  # items
        st.integers(0, 3),  # relations
        st.integers(20, 26),  # values
    ),
    min_size=2,
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(triples_strategy, st.integers(1, 4), st.floats(0.3, 1.0))
def test_thresholds_respected(triples, min_support, min_confidence):
    store = TripleStore(triples)
    rules = RuleMiner(min_support=min_support, min_confidence=min_confidence).mine(store)
    for rule in rules:
        assert rule.support >= min_support
        assert rule.confidence >= min_confidence - 1e-12
        assert rule.confidence <= 1.0 + 1e-12
        assert rule.body_relation != rule.head_relation


@settings(max_examples=40, deadline=None)
@given(triples_strategy)
def test_support_counts_are_exact(triples):
    """Every mined rule's support equals the actual co-occurrence count."""
    store = TripleStore(triples)
    rules = RuleMiner(min_support=1, min_confidence=0.01).mine(store)
    for rule in rules[:10]:
        count = 0
        for head in store.heads():
            facts = {
                (t.relation, t.tail) for t in store.triples_with_head(head)
            }
            if (rule.body_relation, rule.body_value) in facts and (
                rule.head_relation,
                rule.head_value,
            ) in facts:
                count += 1
        assert count == rule.support


@settings(max_examples=40, deadline=None)
@given(triples_strategy)
def test_stricter_thresholds_give_subset(triples):
    store = TripleStore(triples)
    loose = RuleMiner(min_support=1, min_confidence=0.2).mine(store)
    strict = RuleMiner(min_support=2, min_confidence=0.8).mine(store)
    loose_keys = {
        (r.body_relation, r.body_value, r.head_relation, r.head_value)
        for r in loose
    }
    strict_keys = {
        (r.body_relation, r.body_value, r.head_relation, r.head_value)
        for r in strict
    }
    assert strict_keys <= loose_keys
