"""Explainable relation reasoning over mined attribute rules.

The production PKG answers "why" alongside "what": a completion or
existence score ships with the mined rules and the concrete triples
that fired them (PAPERS.md, arXiv 2112.08589).  This module packages
that evidence as a structured :class:`ExplanationPayload` — every
citation names a rule and a supporting triple that together *entail*
the predicted value, a property the test suite checks for every
explained completion — and adds the paper's transfer question: do
rules mined on one category subgraph still hold on another?

The payload's :meth:`ExplanationPayload.canonical_dict` is the wire
form: canonical JSON bytes of it are what the pool protocol CRCs and
what the byte-diffed workload transcripts hash, so its layout is
deliberately primitive (ints, floats, nested lists — nothing numpy).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..kg.rules import Rule, RuleCompleter, RuleMiner
from ..kg.store import TripleStore
from ..reliability.checkpoint import atomic_write_bytes
from ..store.layout import canonical_json, parse_manifest, seal_manifest

__all__ = [
    "Citation",
    "Explainer",
    "ExplanationPayload",
    "SIDECAR_NAME",
    "TransferReport",
    "category_subgraphs",
    "evaluate_rule_transfer",
    "load_sidecar",
    "save_sidecar",
]

EXPLAIN_COMPLETION = "completion"
EXPLAIN_EXISTENCE = "existence"

#: Filename of the scenario sidecar written next to an embedding
#: store so forked pool workers can rebuild an :class:`Explainer`.
SIDECAR_NAME = "scenarios.json"


@dataclass(frozen=True)
class Citation:
    """One piece of evidence: a rule plus the triple that fired it.

    ``support`` is a concrete ``(head, relation, tail)`` triple of the
    explained item matching the rule's body; the rule's head is the
    ``(relation, value)`` being argued for.  Rule + support together
    entail ``value`` — :meth:`ExplanationPayload.entailed_by` verifies
    exactly that against a store.
    """

    value: int
    rule: Rule
    support: Tuple[int, int, int]

    def as_dict(self) -> Dict[str, object]:
        return {
            "value": int(self.value),
            "body_relation": int(self.rule.body_relation),
            "body_value": int(self.rule.body_value),
            "head_relation": int(self.rule.head_relation),
            "head_value": int(self.rule.head_value),
            "support_count": int(self.rule.support),
            "confidence": float(self.rule.confidence),
            "support": [int(x) for x in self.support],
        }


@dataclass(frozen=True)
class ExplanationPayload:
    """A completion/existence answer with the evidence behind it.

    ``predictions`` is the ranked ``(value, score)`` list (empty for a
    degraded payload); every prediction is backed by at least one
    :class:`Citation`.  ``existence_score`` carries the PKGM existence
    head's sigmoid score when the query kind is ``"existence"`` and a
    server was attached.  ``degraded`` marks gateway fallback payloads.
    """

    entity_id: int
    relation: int
    kind: str = EXPLAIN_COMPLETION
    predictions: Tuple[Tuple[int, float], ...] = ()
    citations: Tuple[Citation, ...] = ()
    existence_score: float = 0.0
    degraded: bool = False

    def canonical_dict(self) -> Dict[str, object]:
        """Primitive, deterministic wire form (CRC'd by the pool)."""
        return {
            "entity": int(self.entity_id),
            "relation": int(self.relation),
            "kind": self.kind,
            "degraded": bool(self.degraded),
            "existence_score": float(self.existence_score),
            "predictions": [[int(v), float(s)] for v, s in self.predictions],
            "citations": [c.as_dict() for c in self.citations],
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def entailed_by(self, store: TripleStore) -> bool:
        """Do the citations actually prove the predictions?

        True iff every citation's supporting triple exists in
        ``store``, matches its rule's body on this entity, and the
        rule's head concludes the cited value under the explained
        relation — and every prediction has at least one citation.
        Degraded payloads (no predictions, no citations) are vacuously
        entailed.
        """
        predicted = {int(v) for v, _ in self.predictions}
        cited = set()
        for citation in self.citations:
            head, relation, tail = citation.support
            rule = citation.rule
            if head != self.entity_id:
                return False
            if (relation, tail) != (rule.body_relation, rule.body_value):
                return False
            if (rule.head_relation, rule.head_value) != (
                self.relation,
                int(citation.value),
            ):
                return False
            if (head, relation, tail) not in store:
                return False
            cited.add(int(citation.value))
        return predicted <= cited


class Explainer:
    """Answers completion/existence queries with structured evidence.

    Wraps a :class:`~repro.kg.rules.RuleCompleter` (mined on demand if
    no rules are supplied) over a triple store; an optional
    :class:`~repro.core.PKGMServer` contributes the sub-symbolic
    existence score.  Unknown items — entities bearing no facts in the
    store — raise :class:`KeyError`, which the serving layers map to
    their ``unknown-id`` outcomes.
    """

    def __init__(
        self,
        store: TripleStore,
        rules: Optional[Iterable[Rule]] = None,
        miner: Optional[RuleMiner] = None,
        server=None,
        registry=None,
    ) -> None:
        self.store = store
        if rules is None:
            rules = (miner or RuleMiner()).mine(store)
        self.completer = RuleCompleter(rules).prune(store.relations())
        self.server = server
        self._completions_c = None
        self._existence_c = None
        if registry is not None:
            self._completions_c = registry.counter(
                "scenarios.explain.completions",
                help="Completion explanations produced",
            )
            self._existence_c = registry.counter(
                "scenarios.explain.existence",
                help="Existence explanations produced",
            )

    @property
    def num_rules(self) -> int:
        return self.completer.num_rules

    def explain(
        self,
        entity_id: int,
        relation: int,
        kind: str = EXPLAIN_COMPLETION,
        top_k: int = 3,
    ) -> ExplanationPayload:
        if kind == EXPLAIN_COMPLETION:
            return self.explain_completion(entity_id, relation, top_k=top_k)
        if kind == EXPLAIN_EXISTENCE:
            return self.explain_existence(entity_id, relation, top_k=top_k)
        raise ValueError(f"unknown explanation kind: {kind!r}")

    def _facts_or_raise(self, entity_id: int):
        facts = self.store.triples_with_head(int(entity_id))
        if not facts:
            raise KeyError(int(entity_id))
        return facts

    def _citations(
        self, entity_id: int, relation: int, values: Sequence[int]
    ) -> Tuple[Citation, ...]:
        citations: List[Citation] = []
        for value in values:
            for rule, support in self.completer.supporting_rules(
                self.store, int(entity_id), int(relation), int(value)
            ):
                citations.append(
                    Citation(value=int(value), rule=rule, support=support)
                )
        citations.sort(key=lambda c: (c.value, c.rule.sort_key))
        return tuple(citations)

    def explain_completion(
        self, entity_id: int, relation: int, top_k: int = 3
    ) -> ExplanationPayload:
        """Explain ``(entity, relation, ?)``: ranked values + evidence."""
        self._facts_or_raise(entity_id)
        predictions = tuple(
            (int(v), float(s))
            for v, s in self.completer.predict(
                self.store, int(entity_id), int(relation), top_k=top_k
            )
        )
        payload = ExplanationPayload(
            entity_id=int(entity_id),
            relation=int(relation),
            kind=EXPLAIN_COMPLETION,
            predictions=predictions,
            citations=self._citations(
                entity_id, relation, [v for v, _ in predictions]
            ),
        )
        if self._completions_c is not None:
            self._completions_c.inc()
        return payload

    def explain_existence(
        self, entity_id: int, relation: int, top_k: int = 3
    ) -> ExplanationPayload:
        """Explain "does ``(entity, relation)`` hold?".

        Combines the PKGM existence head's score (when a server is
        attached) with the symbolic evidence: rules concluding any
        value under ``relation`` whose bodies this entity satisfies.
        """
        self._facts_or_raise(entity_id)
        score = 0.0
        if self.server is not None:
            score = float(
                self.server.relation_existence_score(int(entity_id), int(relation))
            )
        predictions = tuple(
            (int(v), float(s))
            for v, s in self.completer.predict(
                self.store, int(entity_id), int(relation), top_k=top_k
            )
        )
        payload = ExplanationPayload(
            entity_id=int(entity_id),
            relation=int(relation),
            kind=EXPLAIN_EXISTENCE,
            predictions=predictions,
            citations=self._citations(
                entity_id, relation, [v for v, _ in predictions]
            ),
            existence_score=score,
        )
        if self._existence_c is not None:
            self._existence_c.inc()
        return payload


# ---------------------------------------------------------------------------
# Sidecar: ship (triples, rules) next to an embedding store so forked
# pool workers can rebuild an Explainer without the catalog pipeline.
# ---------------------------------------------------------------------------


def save_sidecar(store_dir: str, store: TripleStore, rules: Iterable[Rule]) -> str:
    """Write the scenario sidecar into ``store_dir``; returns its path.

    A sealed canonical-JSON document (sorted triples, rule sort order,
    self-checksum) written tmp → fsync → rename, so two same-input
    saves are byte-identical — the sidecar rides inside byte-compared
    store directories — and a torn or bit-flipped one is refused by
    :func:`load_sidecar` instead of half-parsed.
    """
    path = os.path.join(store_dir, SIDECAR_NAME)
    ordered = sorted(RuleCompleter(rules).rules, key=lambda r: r.sort_key)
    payload = {
        "version": 1,  # manifest format version (parse_manifest pins it)
        "triples": sorted(
            [int(t.head), int(t.relation), int(t.tail)] for t in store
        ),
        "rules": [
            {
                "body_relation": rule.body_relation,
                "body_value": rule.body_value,
                "head_relation": rule.head_relation,
                "head_value": rule.head_value,
                "support": rule.support,
                "confidence": rule.confidence,
            }
            for rule in ordered
        ],
    }
    atomic_write_bytes(path, canonical_json(seal_manifest(payload)))
    return path


def load_sidecar(store_dir: str, server=None, registry=None) -> Optional[Explainer]:
    """Rebuild an :class:`Explainer` from a store's sidecar, if present;
    a damaged one raises :class:`repro.store.StoreManifestError` (a
    ``RuntimeError``, which the ``explain`` op degrades)."""
    path = os.path.join(store_dir, SIDECAR_NAME)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        payload = parse_manifest(fh.read())
    store = TripleStore((h, r, t) for h, r, t in payload["triples"])
    rules = [
        Rule(
            body_relation=int(r["body_relation"]),
            body_value=int(r["body_value"]),
            head_relation=int(r["head_relation"]),
            head_value=int(r["head_value"]),
            support=int(r["support"]),
            confidence=float(r["confidence"]),
        )
        for r in payload["rules"]
    ]
    return Explainer(store, rules=rules, server=server, registry=registry)


# ---------------------------------------------------------------------------
# Rule transfer across category subgraphs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferReport:
    """Do rules mined on ``source`` still hold on ``target``?

    ``precision`` — of the target slots the transferred rules dared to
    predict, what fraction matched the target's ground truth.
    ``coverage`` — what fraction of the target's ground-truth slots
    received a prediction at all.
    """

    source_category: int
    target_category: int
    rules_mined: int
    slots: int
    predicted: int
    correct: int

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def coverage(self) -> float:
        return self.predicted / self.slots if self.slots else 0.0

    def as_row(self) -> str:
        return (
            f"{self.source_category} -> {self.target_category}: "
            f"rules={self.rules_mined} slots={self.slots} "
            f"predicted={self.predicted} correct={self.correct} "
            f"precision={self.precision:.3f} coverage={self.coverage:.3f}"
        )


def category_subgraphs(catalog) -> Dict[int, TripleStore]:
    """Per-category triple stores over the catalog's item facts."""
    subgraphs: Dict[int, TripleStore] = {}
    for item in catalog.items:
        store = subgraphs.setdefault(item.category_id, TripleStore())
        for triple in catalog.store.triples_with_head(item.entity_id):
            store.add(triple.head, triple.relation, triple.tail)
    return subgraphs


def evaluate_rule_transfer(
    source: TripleStore,
    target: TripleStore,
    miner: Optional[RuleMiner] = None,
    source_category: int = -1,
    target_category: int = -1,
) -> TransferReport:
    """Mine on ``source``, measure precision/coverage on ``target``.

    For every ``(item, relation)`` slot of the target that has ground
    truth and that the rule set can conclude about, predict top-1 from
    the item's *other* facts (rule bodies never share the head
    relation, so the answer itself never leaks into the body match)
    and compare against the target's stored tails.
    """
    rules = (miner or RuleMiner()).mine(source)
    completer = RuleCompleter(rules)
    slots = predicted = correct = 0
    for item in sorted(target.heads()):
        for relation in completer.head_relations():
            truth = target.tails(item, relation)
            if not truth:
                continue
            slots += 1
            top = completer.predict(target, item, relation, top_k=1)
            if not top:
                continue
            predicted += 1
            if top[0][0] in truth:
                correct += 1
    return TransferReport(
        source_category=source_category,
        target_category=target_category,
        rules_mined=len(rules),
        slots=slots,
        predicted=predicted,
        correct=correct,
    )
