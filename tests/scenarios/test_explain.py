"""Tests for the explanation service: payloads, entailment, sidecar,
and cross-category rule transfer."""

import numpy as np
import pytest

from repro.kg import Rule, RuleCompleter, TripleStore
from repro.kg.rules import RuleMiner
from repro.scenarios import (
    Citation,
    ExplanationPayload,
    Explainer,
    TransferReport,
    category_subgraphs,
    evaluate_rule_transfer,
    load_sidecar,
    save_sidecar,
)
from repro.store import StoreManifestError


@pytest.fixture(scope="module")
def explainer(catalog, rules, server):
    return Explainer(catalog.store, rules=rules, server=server)


class TestExplainer:
    def test_completion_matches_completer(self, explainer, catalog):
        item = catalog.items[0].entity_id
        relation = explainer.completer.head_relations()[0]
        payload = explainer.explain(item, relation)
        expected = explainer.completer.predict(
            catalog.store, item, relation, top_k=3
        )
        assert list(payload.predictions) == [
            (int(v), float(s)) for v, s in expected
        ]
        assert payload.kind == "completion"

    def test_every_explained_completion_is_entailed(self, explainer, catalog):
        """The acceptance property: supporting triples entail the answer
        for every explained completion over a seeded query sweep."""
        relations = explainer.completer.head_relations()
        checked = 0
        for item in catalog.items[:30]:
            for relation in relations:
                payload = explainer.explain(item.entity_id, relation)
                assert payload.entailed_by(catalog.store)
                if payload.predictions:
                    assert payload.citations
                    checked += 1
        assert checked > 0

    def test_unknown_entity_raises_keyerror(self, explainer, catalog):
        with pytest.raises(KeyError):
            explainer.explain(len(catalog.entities) + 1000, 0)

    def test_invalid_kind_rejected(self, explainer, catalog):
        with pytest.raises(ValueError):
            explainer.explain(catalog.items[0].entity_id, 0, kind="vibes")

    def test_existence_carries_server_score(self, explainer, server, catalog):
        item = catalog.items[0].entity_id
        payload = explainer.explain(item, 0, kind="existence")
        assert payload.kind == "existence"
        assert payload.existence_score == pytest.approx(
            float(server.relation_existence_score(item, 0))
        )

    def test_canonical_bytes_order_invariant(self, catalog, rules, server):
        item = catalog.items[0].entity_id
        relation = RuleCompleter(rules).head_relations()[0]
        reference = Explainer(catalog.store, rules=rules, server=server)
        rng = np.random.default_rng(5)
        shuffled = list(rules)
        rng.shuffle(shuffled)
        other = Explainer(catalog.store, rules=shuffled, server=server)
        assert (
            reference.explain(item, relation).canonical_bytes()
            == other.explain(item, relation).canonical_bytes()
        )

    def test_citations_sorted(self, explainer, catalog):
        for item in catalog.items[:10]:
            for relation in explainer.completer.head_relations():
                payload = explainer.explain(item.entity_id, relation)
                keys = [(c.value, c.rule.sort_key) for c in payload.citations]
                assert keys == sorted(keys)


class TestEntailment:
    def rule(self):
        return Rule(0, 100, 1, 200, support=3, confidence=0.9)

    def test_rejects_citation_missing_from_store(self):
        payload = ExplanationPayload(
            entity_id=7,
            relation=1,
            predictions=((200, 0.9),),
            citations=(Citation(200, self.rule(), (7, 0, 100)),),
        )
        assert payload.entailed_by(TripleStore([(7, 0, 100)]))
        assert not payload.entailed_by(TripleStore([(7, 0, 101)]))

    def test_rejects_uncited_prediction(self):
        payload = ExplanationPayload(
            entity_id=7, relation=1, predictions=((200, 0.9),)
        )
        assert not payload.entailed_by(TripleStore([(7, 0, 100)]))

    def test_rejects_wrong_entity_citation(self):
        payload = ExplanationPayload(
            entity_id=7,
            relation=1,
            predictions=((200, 0.9),),
            citations=(Citation(200, self.rule(), (8, 0, 100)),),
        )
        assert not payload.entailed_by(
            TripleStore([(7, 0, 100), (8, 0, 100)])
        )

    def test_degraded_payload_vacuously_entailed(self):
        payload = ExplanationPayload(entity_id=7, relation=1, degraded=True)
        assert payload.entailed_by(TripleStore([]))


class TestSidecar:
    def test_roundtrip_preserves_explanations(
        self, tmp_path, catalog, rules, server
    ):
        save_sidecar(str(tmp_path), catalog.store, rules)
        loaded = load_sidecar(str(tmp_path), server=server)
        assert loaded is not None
        direct = Explainer(catalog.store, rules=rules, server=server)
        item = catalog.items[0].entity_id
        for relation in direct.completer.head_relations()[:3]:
            assert (
                loaded.explain(item, relation).canonical_bytes()
                == direct.explain(item, relation).canonical_bytes()
            )

    def test_save_is_byte_deterministic(self, tmp_path, catalog, rules):
        path_a = tmp_path / "a"
        path_b = tmp_path / "b"
        path_a.mkdir()
        path_b.mkdir()
        save_sidecar(str(path_a), catalog.store, rules)
        save_sidecar(str(path_b), catalog.store, list(reversed(rules)))
        assert (path_a / "scenarios.json").read_bytes() == (
            path_b / "scenarios.json"
        ).read_bytes()

    def test_missing_sidecar_loads_none(self, tmp_path):
        assert load_sidecar(str(tmp_path)) is None

    @pytest.mark.parametrize("damage", ["torn", "bit-flip", "not-json"])
    def test_damaged_sidecar_is_a_typed_refusal(
        self, tmp_path, catalog, rules, damage
    ):
        """The sidecar is sealed: damage is a ``StoreManifestError`` (a
        ``RuntimeError`` the explain op degrades), never a raw
        ``JSONDecodeError`` and never a half-parsed rule set."""
        path = tmp_path / "scenarios.json"
        save_sidecar(str(tmp_path), catalog.store, rules)
        blob = bytearray(path.read_bytes())
        if damage == "torn":
            blob = blob[: len(blob) // 2]
        elif damage == "bit-flip":
            digit = next(i for i, b in enumerate(blob) if chr(b).isdigit())
            blob[digit] ^= 0x01  # still valid JSON, different number
        else:
            blob = bytearray(b"{not json")
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreManifestError) as refusal:
            load_sidecar(str(tmp_path))
        assert isinstance(refusal.value, RuntimeError)
        assert not isinstance(refusal.value, ValueError)

    def test_save_leaves_no_temp_file(self, tmp_path, catalog, rules):
        save_sidecar(str(tmp_path), catalog.store, rules)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenarios.json"]


class TestRuleTransfer:
    def determined_store(self, offset=0):
        triples = []
        for item in range(10):
            group = item % 2
            triples.append((item + offset, 0, 100 + group))
            triples.append((item + offset, 1, 200 + group))
        return TripleStore(triples)

    def test_perfect_transfer(self):
        report = evaluate_rule_transfer(
            self.determined_store(),
            self.determined_store(offset=50),
            miner=RuleMiner(min_support=2, min_confidence=0.9),
            source_category=0,
            target_category=1,
        )
        assert isinstance(report, TransferReport)
        assert report.slots > 0
        assert report.predicted == report.slots
        assert report.precision == pytest.approx(1.0)
        assert report.coverage == pytest.approx(1.0)
        assert "0 -> 1" in report.as_row()

    def test_no_rules_no_predictions(self):
        source = TripleStore([(0, 0, 100)])  # nothing minable
        report = evaluate_rule_transfer(source, self.determined_store())
        assert report.rules_mined == 0
        assert report.predicted == 0
        assert report.precision == 0.0
        assert report.coverage == 0.0

    def test_category_subgraphs_partition_item_facts(self, catalog):
        subgraphs = category_subgraphs(catalog)
        assert set(subgraphs) == {item.category_id for item in catalog.items}
        total = sum(len(store) for store in subgraphs.values())
        item_facts = sum(
            len(catalog.store.triples_with_head(item.entity_id))
            for item in catalog.items
        )
        assert total == item_facts

    def test_transfer_on_catalog_categories(self, catalog):
        subgraphs = category_subgraphs(catalog)
        categories = sorted(subgraphs)[:2]
        report = evaluate_rule_transfer(
            subgraphs[categories[0]],
            subgraphs[categories[1]],
            miner=RuleMiner(min_support=2, min_confidence=0.6),
            source_category=categories[0],
            target_category=categories[1],
        )
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.coverage <= 1.0
        assert report.correct <= report.predicted <= report.slots
