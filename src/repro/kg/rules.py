"""Attribute-implication rule mining (AMIE-lite).

The production PKG holds "3+ million rules" alongside its triples.  At
product-KG scale the dominant rule shape is the attribute implication

    r1(x, v1)  =>  r2(x, v2)

("seriesIs nova-3 implies brandIs kainor"): sellers fill series and
brand together, so value co-occurrence mined from the graph predicts
missing attributes.  This module mines such rules with the standard
support/confidence thresholds and applies them for symbolic KG
completion — the baseline PKGM's vector-space completion is compared
against in ``bench_ablation_rules.py``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .store import TripleStore


@dataclass(frozen=True)
class Rule:
    """``(body_relation, body_value) => (head_relation, head_value)``."""

    body_relation: int
    body_value: int
    head_relation: int
    head_value: int
    support: int
    confidence: float

    def __str__(self) -> str:
        return (
            f"({self.body_relation}, {self.body_value}) => "
            f"({self.head_relation}, {self.head_value}) "
            f"[support={self.support}, confidence={self.confidence:.2f}]"
        )

    @property
    def signature(self) -> Tuple[int, int, int, int]:
        """The implication itself, without the mined statistics."""
        return (
            self.body_relation,
            self.body_value,
            self.head_relation,
            self.head_value,
        )

    @property
    def sort_key(self) -> Tuple[float, int, int, int, int, int]:
        """Total order: best confidence, then support, then signature.

        Every consumer that ranks rules uses this key, so rule order —
        and therefore explanation payloads and completed stores — is
        identical across runs even when confidences tie.
        """
        return (-self.confidence, -self.support) + self.signature


class RuleMiner:
    """Mines attribute-implication rules from a product KG.

    Parameters
    ----------
    min_support:
        Minimum number of items satisfying body AND head.
    min_confidence:
        Minimum P(head | body).
    """

    def __init__(self, min_support: int = 3, min_confidence: float = 0.7) -> None:
        if min_support < 1:
            raise ValueError("min_support must be >= 1")
        if not 0.0 < min_confidence <= 1.0:
            raise ValueError("min_confidence must be in (0, 1]")
        self.min_support = min_support
        self.min_confidence = min_confidence

    def mine(self, store: TripleStore) -> List[Rule]:
        """Return all rules meeting the thresholds, best-confidence first.

        Complexity is O(sum over items of deg^2): for each item, every
        ordered pair of its (relation, value) facts votes for one
        candidate rule.
        """
        body_counts: Counter = Counter()
        pair_counts: Counter = Counter()
        for head in store.heads():
            facts = [
                (triple.relation, triple.tail)
                for triple in store.triples_with_head(head)
            ]
            for body in facts:
                body_counts[body] += 1
            for body in facts:
                for conclusion in facts:
                    if body == conclusion or body[0] == conclusion[0]:
                        continue  # no self- or same-relation rules
                    pair_counts[(body, conclusion)] += 1

        rules: List[Rule] = []
        for (body, conclusion), support in pair_counts.items():
            if support < self.min_support:
                continue
            confidence = support / body_counts[body]
            if confidence < self.min_confidence:
                continue
            rules.append(
                Rule(
                    body_relation=body[0],
                    body_value=body[1],
                    head_relation=conclusion[0],
                    head_value=conclusion[1],
                    support=support,
                    confidence=confidence,
                )
            )
        rules.sort(key=lambda r: r.sort_key)
        return rules


class RuleCompleter:
    """Applies mined rules to infer missing triples.

    For a query ``(item, relation, ?)`` every rule whose body matches
    one of the item's facts and whose head relation equals ``relation``
    votes for its head value with weight = confidence; candidates are
    returned best first with deterministic lowest-value tie-breaks.

    The constructor normalizes whatever rule list it is handed: exact
    duplicate implications are collapsed (keeping the best-supported
    statistics) and every bucket is held in :attr:`Rule.sort_key`
    order, so prediction and completion results do not depend on the
    order rules were mined or loaded in.  An empty rule set is valid
    and yields empty predictions / an unchanged completion.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        best: Dict[Tuple[int, int, int, int], Rule] = {}
        for rule in rules:
            kept = best.get(rule.signature)
            if kept is None or rule.sort_key < kept.sort_key:
                best[rule.signature] = rule
        ordered = sorted(best.values(), key=lambda r: r.sort_key)
        self._by_head_relation: Dict[int, List[Rule]] = defaultdict(list)
        for rule in ordered:
            self._by_head_relation[rule.head_relation].append(rule)
        self.num_rules = len(ordered)

    @property
    def rules(self) -> List[Rule]:
        """All retained rules, in :attr:`Rule.sort_key` order."""
        merged = [
            rule
            for relation in sorted(self._by_head_relation)
            for rule in self._by_head_relation[relation]
        ]
        merged.sort(key=lambda r: r.sort_key)
        return merged

    def head_relations(self) -> List[int]:
        """Relations this rule set can predict, ascending."""
        return sorted(self._by_head_relation)

    def prune(self, valid_relations: Iterable[int]) -> "RuleCompleter":
        """A new completer without rules touching retired relations.

        A rule citing a relation absent from ``valid_relations`` in
        either its body or head can never fire against the current KG
        schema; catalog evolution retires relations, so the explanation
        service prunes before serving rather than letting dead rules
        dilute vote totals.
        """
        valid = set(int(r) for r in valid_relations)
        return RuleCompleter(
            rule
            for rule in self.rules
            if rule.body_relation in valid and rule.head_relation in valid
        )

    def predict(
        self, store: TripleStore, item: int, relation: int, top_k: int = 3
    ) -> List[Tuple[int, float]]:
        """Ranked ``(value, score)`` predictions for ``(item, relation, ?)``."""
        if not self._by_head_relation:
            return []
        facts: Set[Tuple[int, int]] = {
            (triple.relation, triple.tail)
            for triple in store.triples_with_head(item)
        }
        votes: Dict[int, float] = defaultdict(float)
        for rule in self._by_head_relation.get(relation, ()):
            if (rule.body_relation, rule.body_value) in facts:
                votes[rule.head_value] += rule.confidence
        ranked = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top_k]

    def supporting_rules(
        self, store: TripleStore, item: int, relation: int, value: int
    ) -> List[Tuple[Rule, Tuple[int, int, int]]]:
        """The evidence behind a prediction: ``(rule, supporting triple)``.

        Every returned rule concludes ``(relation, value)`` and its body
        is satisfied by a concrete triple of ``item`` — the triple is
        returned alongside so callers can cite it.  Ordered best rule
        first.
        """
        facts: Set[Tuple[int, int]] = {
            (triple.relation, triple.tail)
            for triple in store.triples_with_head(item)
        }
        support: List[Tuple[Rule, Tuple[int, int, int]]] = []
        for rule in self._by_head_relation.get(relation, ()):
            if rule.head_value != value:
                continue
            body = (rule.body_relation, rule.body_value)
            if body in facts:
                support.append((rule, (item, body[0], body[1])))
        return support
