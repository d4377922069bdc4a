"""Tests for the attribute-prediction extension task."""

import pytest

from repro.core import pretrain_pkgm
from repro.tasks import AttributePredictionTask


@pytest.fixture(scope="module")
def task(workbench):
    return AttributePredictionTask(
        workbench.catalog, "brandIs", holdout_fraction=0.3, seed=0
    )


@pytest.fixture(scope="module")
def model(workbench, task):
    """PKGM trained WITHOUT the held-out attribute triples."""
    return pretrain_pkgm(
        task.observed,
        len(workbench.catalog.entities),
        len(workbench.catalog.relations),
        model_config=workbench.config.pkgm,
        trainer_config=workbench.config.pkgm_trainer,
        seed=0,
    )


class TestAttributePredictionTask:
    def test_holdout_partitions_relation_triples(self, workbench, task):
        total = len(
            workbench.catalog.store.triples_with_relation(task.relation_id)
        )
        observed = len(task.observed.triples_with_relation(task.relation_id))
        assert observed + len(task.test_cases) == total
        assert len(task.test_cases) == pytest.approx(total * 0.3, abs=2)

    def test_other_relations_untouched(self, workbench, task):
        for relation in workbench.catalog.store.relations():
            if relation == task.relation_id:
                continue
            assert len(task.observed.triples_with_relation(relation)) == len(
                workbench.catalog.store.triples_with_relation(relation)
            )

    def test_candidates_are_relation_values(self, workbench, task):
        for value in task.candidate_values:
            assert not workbench.catalog.entities.is_item(int(value))

    def test_majority_baseline_bounds(self, task):
        result = task.majority_baseline()
        assert 0.0 <= result.hit1 <= result.hit3 <= 1.0
        assert result.num_cases == len(task.test_cases)
        assert result.method == "majority"

    def test_pkgm_beats_chance(self, task, model):
        result = task.pkgm_prediction(model)
        chance = 3.0 / len(task.candidate_values)
        assert result.hit3 > chance
        assert result.hit3 >= result.hit1

    def test_pkgm_matches_majority_on_model_codes(self, workbench):
        """Model codes are per-product: the category majority baseline is
        near-useless, while PKGM can transfer the code from sibling
        listings of the same product through embedding similarity."""
        from repro.core import pretrain_pkgm as pretrain

        task = AttributePredictionTask(
            workbench.catalog, "modelIs", holdout_fraction=0.3, seed=0
        )
        model = pretrain(
            task.observed,
            len(workbench.catalog.entities),
            len(workbench.catalog.relations),
            model_config=workbench.config.pkgm,
            trainer_config=workbench.config.pkgm_trainer,
            seed=0,
        )
        majority = task.majority_baseline()
        pkgm = task.pkgm_prediction(model)
        assert pkgm.hit3 >= majority.hit3

    def test_row_format(self, task):
        row = task.majority_baseline().as_row()
        assert row.startswith("majority | brandIs | ")

    def test_validation(self, workbench):
        with pytest.raises(KeyError):
            AttributePredictionTask(workbench.catalog, "nope")
        with pytest.raises(ValueError):
            AttributePredictionTask(workbench.catalog, "brandIs", holdout_fraction=0.0)
