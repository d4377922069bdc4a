"""Extension — item attribute prediction (paper intro / future work).

The paper's introduction lists "item attributes prediction" among the
knowledge-enhanced applications; the conclusion leaves more downstream
tasks to future work.  This bench runs our extension task: predict
held-out attribute values either with the per-category majority
baseline or by decoding PKGM's ``S_T`` service vector, with no
task-specific training at all.

Expected shape: on low-cardinality category-correlated attributes
(color) the majority baseline is strong and PKGM beats chance; on
item-identifying attributes (model codes) majority collapses, and
whether PKGM's sibling-transfer mechanism wins depends on scale (it
does at smoke scale — see the unit tests — but dilutes at bench scale
where 476 codes compete in a 24-dim space).  Both regimes are recorded.
"""

import pytest

from repro.core import pretrain_pkgm
from repro.tasks import AttributePredictionTask

RELATIONS = ("colorIs", "brandIs", "modelIs")


def run_relation(workbench, relation):
    task = AttributePredictionTask(
        workbench.catalog, relation, holdout_fraction=0.3, seed=0
    )
    model = pretrain_pkgm(
        task.observed,
        len(workbench.catalog.entities),
        len(workbench.catalog.relations),
        model_config=workbench.config.pkgm,
        trainer_config=workbench.config.pkgm_trainer,
        seed=0,
    )
    return task.majority_baseline(), task.pkgm_prediction(model), task


def test_extension_attribute_prediction(benchmark, workbench, record_table):
    results = {}

    def sweep():
        for relation in RELATIONS:
            results[relation] = run_relation(workbench, relation)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        "Extension: attribute prediction — method | relation | Hit@1 | Hit@3 | n",
    ]
    for relation in RELATIONS:
        majority, pkgm, task = results[relation]
        lines.append(majority.as_row())
        lines.append(pkgm.as_row())
        lines.append(f"  ({len(task.candidate_values)} candidate values)")
    record_table("extension_attribute_prediction", lines)

    # Sanity only: per-relation winners vary with scale (at smoke scale
    # PKGM beats majority on model codes — asserted in the unit tests;
    # at bench scale the 476-code embedding space is under-trained at
    # dim 24).  The recorded table is the deliverable here.
    for relation in RELATIONS:
        majority, pkgm, task = results[relation]
        assert 0.0 <= pkgm.hit1 <= pkgm.hit3 <= 1.0
        assert 0.0 <= majority.hit1 <= majority.hit3 <= 1.0
        assert pkgm.num_cases == majority.num_cases > 0
    # Low-cardinality attributes: PKGM must stay above random chance.
    _, pkgm_color, color_task = results["colorIs"]
    assert pkgm_color.hit3 > 3.0 / len(color_task.candidate_values)
