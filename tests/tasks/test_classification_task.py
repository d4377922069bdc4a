"""Tests for the item classification task (Table IV protocol)."""

import numpy as np
import pytest

from repro.data import build_classification_dataset
from repro.tasks import ItemClassificationTask
from repro.text import service_payload, vectors_per_item


@pytest.fixture(scope="module")
def dataset(workbench):
    return build_classification_dataset(
        workbench.catalog, workbench.titles, max_per_category=60, seed=5
    )


@pytest.fixture(scope="module")
def task(workbench, dataset, config):
    return ItemClassificationTask(
        dataset,
        workbench.tokenizer,
        workbench.encoder_config,
        server=workbench.server,
        pretrained_state=workbench.mlm_state,
        config=config.finetune,
    )


@pytest.fixture(scope="module")
def base_result(task):
    return task.run("base")


@pytest.fixture(scope="module")
def pkgm_all_result(task):
    return task.run("pkgm-all")


class TestClassificationTask:
    def test_result_structure(self, base_result):
        assert base_result.variant == "base"
        assert 0.0 <= base_result.accuracy <= 1.0
        assert set(base_result.hits) == {1, 3, 10}
        assert base_result.hits[1] <= base_result.hits[3] <= base_result.hits[10]

    def test_accuracy_equals_hit_at_1(self, base_result):
        """With argmax prediction, accuracy must match Hit@1."""
        assert base_result.accuracy == pytest.approx(base_result.hits[1])

    def test_learns_above_chance(self, base_result, dataset):
        chance = 1.0 / dataset.num_categories
        assert base_result.accuracy > 2 * chance

    def test_pkgm_all_beats_base(self, base_result, pkgm_all_result):
        """The paper's headline claim at this task (Table IV)."""
        assert pkgm_all_result.hits[1] >= base_result.hits[1]

    def test_table_row_format(self, base_result):
        row = base_result.as_table_row()
        assert row.startswith("base | ")
        assert row.count("|") == 4

    def test_variant_requires_server(self, dataset, workbench, config):
        task = ItemClassificationTask(
            dataset,
            workbench.tokenizer,
            workbench.encoder_config,
            server=None,
            config=config.finetune,
        )
        with pytest.raises(ValueError):
            task.run("pkgm-all")

    def test_unknown_variant_rejected(self, task):
        with pytest.raises(ValueError):
            task.run("pkgm-xyz")

    def test_unknown_split_rejected(self, task):
        with pytest.raises(ValueError):
            task.run("base", eval_split="bogus")

    def test_deterministic_given_seed(self, task):
        a = task.run("base")
        b = task.run("base")
        assert a.accuracy == pytest.approx(b.accuracy)
        assert a.hits == b.hits


class TestServicePayloads:
    def test_vectors_per_item(self):
        assert vectors_per_item("base", 5) == 0
        assert vectors_per_item("pkgm-t", 5) == 5
        assert vectors_per_item("pkgm-r", 5) == 5
        assert vectors_per_item("pkgm-all", 5) == 10

    def test_payload_shapes(self, workbench):
        entities = [item.entity_id for item in workbench.catalog.items[:6]]
        k, d = workbench.server.k, workbench.server.dim
        assert service_payload(workbench.server, entities, "base") is None
        assert service_payload(workbench.server, entities, "pkgm-t").shape == (6, k, d)
        assert service_payload(workbench.server, entities, "pkgm-r").shape == (6, k, d)
        assert service_payload(workbench.server, entities, "pkgm-all").shape == (
            6,
            2 * k,
            d,
        )

    def test_payload_ordering_triple_first(self, workbench):
        entities = [workbench.catalog.items[0].entity_id]
        all_payload = service_payload(workbench.server, entities, "pkgm-all")[0]
        t_payload = service_payload(workbench.server, entities, "pkgm-t")[0]
        r_payload = service_payload(workbench.server, entities, "pkgm-r")[0]
        k = workbench.server.k
        assert np.allclose(all_payload[:k], t_payload)
        assert np.allclose(all_payload[k:], r_payload)
