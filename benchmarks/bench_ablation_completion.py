"""Ablation — completion-during-service vs KG incompleteness.

§II-D claims PKGM "could complete knowledge graphs during servicing".
We hold out growing fractions of true triples before pre-training and
measure how well ``S_T(h, r)`` still decodes the held-out tails — the
vector-space analogue of link-prediction recall, measured exactly on
the facts the KG is missing.
"""

import numpy as np

from repro.core import pretrain_pkgm
from repro.kg import holdout_incompleteness

FRACTIONS = (0.05, 0.15, 0.3)


def completion_hits(workbench, fraction):
    catalog = workbench.catalog
    observed, missing = holdout_incompleteness(
        catalog.store, fraction, np.random.default_rng(17)
    )
    model = pretrain_pkgm(
        observed,
        len(catalog.entities),
        len(catalog.relations),
        model_config=workbench.config.pkgm,
        trainer_config=workbench.config.pkgm_trainer,
        seed=0,
    )
    held = missing.to_array()
    sample = held[
        np.random.default_rng(3).choice(
            len(held), size=min(300, len(held)), replace=False
        )
    ]
    service = model.service_triple(sample[:, 0], sample[:, 1])
    top = model.nearest_entities(service, k=10)
    hit10 = float(np.mean([sample[i, 2] in top[i] for i in range(len(sample))]))
    hit1 = float(np.mean([sample[i, 2] == top[i][0] for i in range(len(sample))]))
    return hit1, hit10


def test_ablation_completion(benchmark, workbench, record_table):
    results = {}

    def sweep():
        for fraction in FRACTIONS:
            results[fraction] = completion_hits(workbench, fraction)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    n_entities = len(workbench.catalog.entities)
    chance10 = 10 / n_entities
    record_table(
        "ablation_completion",
        [
            "Ablation: completion-during-service vs incompleteness",
            "held-out fraction | Hit@1 | Hit@10 of S_T decoding held-out tails",
            *(
                f"{fraction:.2f} | {results[fraction][0]:.3f} | {results[fraction][1]:.3f}"
                for fraction in FRACTIONS
            ),
            f"(chance Hit@10 ~ {chance10:.4f} over {n_entities} entities)",
        ],
    )

    # Completion works far above chance even at 30% missing facts.
    for fraction in FRACTIONS:
        assert results[fraction][1] > 10 * chance10
