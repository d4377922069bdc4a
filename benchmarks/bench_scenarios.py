"""Scenario benchmarks — zero-shot recommendation + rule transfer.

The paper's business case for a pre-trained product KG model is that
downstream services can consume knowledge *without task-specific
training data*.  Two scenario benches quantify that here:

* **Zero-shot cold-start** — items present in the KG but absent from
  every training interaction are ranked for held-out users purely from
  their condensed service vectors.  The acceptance bar: the service
  ranking must beat both the popularity and random baselines on HR@10
  *and* NDCG@10.
* **Rule transfer** — attribute-implication rules mined on one
  category's subgraph are evaluated on every other category, the
  explanation service's cross-domain story.
"""

from repro.kg import RuleMiner
from repro.scenarios import (
    ColdStartConfig,
    category_subgraphs,
    evaluate_rule_transfer,
    run_coldstart,
)


def test_bench_zero_shot_coldstart(benchmark, config, record_table):
    results = {}

    def run():
        report, split = run_coldstart(config, coldstart=ColdStartConfig(seed=7))
        results["report"] = report
        results["split"] = split

    benchmark.pedantic(run, rounds=1, iterations=1)

    report = results["report"]
    record_table(
        "scenarios_coldstart",
        [
            "Zero-shot cold-start recommendation (service vectors only)",
            results["split"].summary(),
            *report.lines(),
            "(cold items are in the KG but absent from all training "
            "interactions by construction)",
        ],
    )

    service = report.methods["service"]
    for baseline in ("popularity", "random"):
        other = report.methods[baseline]
        assert service["HR@10"] > other["HR@10"], (
            f"service HR@10 {service['HR@10']:.4f} must beat "
            f"{baseline} {other['HR@10']:.4f}"
        )
        assert service["NDCG@10"] > other["NDCG@10"], (
            f"service NDCG@10 {service['NDCG@10']:.4f} must beat "
            f"{baseline} {other['NDCG@10']:.4f}"
        )


def test_bench_rule_transfer(benchmark, workbench, record_table):
    subgraphs = category_subgraphs(workbench.catalog)
    categories = sorted(subgraphs)[:4]
    miner = RuleMiner(min_support=2, min_confidence=0.6)
    reports = []

    def run():
        reports.clear()
        for source in categories:
            for target in categories:
                if source == target:
                    continue
                reports.append(
                    evaluate_rule_transfer(
                        subgraphs[source],
                        subgraphs[target],
                        miner=miner,
                        source_category=source,
                        target_category=target,
                    )
                )

    benchmark.pedantic(run, rounds=1, iterations=1)

    record_table(
        "scenarios_rule_transfer",
        [
            "Rule transfer across category subgraphs "
            "(mine on source, score on target)",
            *[report.as_row() for report in reports],
            "(precision: of predicted slots, fraction matching target "
            "ground truth; coverage: fraction of slots predicted)",
        ],
    )

    assert reports
    assert any(report.predicted > 0 for report in reports)
    in_domain = [r for r in reports if r.precision > 0]
    assert in_domain, "at least one transfer pair must predict correctly"
