"""Ablation — symbolic rule completion vs PKGM vector completion.

The production PKG carries "3+ million rules" next to its triples.
Mined attribute-implication rules complete missing facts with high
precision but only where a matching body exists; PKGM's ``S_T`` service
answers *every* query.  This bench quantifies that coverage/precision
trade-off — the motivation for serving knowledge from vector space.
"""

import numpy as np

from repro.core import pretrain_pkgm
from repro.kg import RuleCompleter, RuleMiner, holdout_incompleteness


def test_ablation_rules_vs_pkgm(benchmark, workbench, record_table):
    catalog = workbench.catalog
    observed, missing = holdout_incompleteness(
        catalog.store, 0.2, np.random.default_rng(21)
    )
    held = missing.to_array()
    results = {}

    def run():
        rules = RuleMiner(min_support=2, min_confidence=0.7).mine(observed)
        completer = RuleCompleter(rules)
        answered = correct = 0
        for h, r, t in held:
            predictions = completer.predict(observed, int(h), int(r), top_k=1)
            if predictions:
                answered += 1
                if predictions[0][0] == t:
                    correct += 1
        results["rules"] = {
            "num_rules": len(rules),
            "coverage": answered / len(held),
            "precision": correct / max(answered, 1),
            "overall_hit1": correct / len(held),
        }

        model = pretrain_pkgm(
            observed,
            len(catalog.entities),
            len(catalog.relations),
            model_config=workbench.config.pkgm,
            trainer_config=workbench.config.pkgm_trainer,
            seed=0,
        )
        service = model.service_triple(held[:, 0], held[:, 1])
        top = model.nearest_entities(service, k=1)
        pkgm_hit1 = float(np.mean([held[i, 2] == top[i][0] for i in range(len(held))]))
        results["pkgm"] = {"coverage": 1.0, "overall_hit1": pkgm_hit1}
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    rules = results["rules"]
    pkgm = results["pkgm"]
    record_table(
        "ablation_rules",
        [
            "Ablation: symbolic rules vs PKGM completion on held-out facts",
            f"mined rules: {rules['num_rules']}",
            f"rules | coverage {100 * rules['coverage']:.1f}% | "
            f"precision@1 {100 * rules['precision']:.1f}% | "
            f"overall Hit@1 {100 * rules['overall_hit1']:.1f}%",
            f"pkgm  | coverage 100.0% | overall Hit@1 {100 * pkgm['overall_hit1']:.1f}%",
            "(the coverage gap is the paper's motivation for vector-space service)",
        ],
    )

    assert rules["num_rules"] > 0
    assert rules["coverage"] < 1.0  # rules cannot answer everything
    assert pkgm["overall_hit1"] > 0.0
