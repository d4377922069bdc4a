"""Tests that the training and serving stacks feed the registry."""

import numpy as np
import pytest

from repro.core import (
    PKGM,
    PKGMConfig,
    PKGMTrainer,
    TrainerConfig,
)
from repro.distributed import ParameterServer
from repro.kg import TripleStore
from repro.obs import MetricsRegistry, Profiler, Tracer


def _tiny_store(seed=0, num_entities=24, num_relations=3, num_triples=120):
    rng = np.random.default_rng(seed)
    triples = {
        (
            int(rng.integers(0, num_entities)),
            int(rng.integers(0, num_relations)),
            int(rng.integers(0, num_entities)),
        )
        for _ in range(num_triples)
    }
    return TripleStore(sorted(triples))


class TestTrainerInstrumentation:
    @pytest.fixture(scope="class")
    def run(self):
        store = _tiny_store()
        model = PKGM(24, 3, PKGMConfig(dim=4), rng=np.random.default_rng(0))
        registry = MetricsRegistry()
        tracer = Tracer(seed=0)
        profiler = Profiler()
        trainer = PKGMTrainer(
            model,
            TrainerConfig(epochs=2, batch_size=16, seed=0),
            registry=registry,
            tracer=tracer,
            profiler=profiler,
        )
        history = trainer.train(store)
        return registry, tracer, profiler, history

    def test_epoch_metrics(self, run):
        registry, _, _, history = run
        snapshot = registry.snapshot()
        assert snapshot["train.epochs"] == 2
        assert snapshot["train.batches"] > 0
        assert snapshot["train.examples"] > 0
        assert snapshot["train.epoch_loss"] == history.epoch_losses[-1]

    def test_epoch_spans(self, run):
        _, tracer, _, _ = run
        spans = [s for s in tracer.store.spans() if s.name == "train.epoch"]
        assert [s.attributes["epoch"] for s in spans] == [0, 1]
        assert all(s.duration > 0 for s in spans)

    def test_profiler_phases(self, run):
        _, _, profiler, _ = run
        assert list(profiler.phases) == [
            "negative_sampling",
            "forward",
            "backward",
            "optimizer",
        ]
        assert profiler.phases["forward"].ops > 0
        assert profiler.total_ops > 0

    def test_tracer_and_profiler_share_the_clock(self, run):
        _, tracer, profiler, _ = run
        assert profiler.clock is tracer.clock

    def test_untracked_trainer_still_works(self):
        store = _tiny_store()
        model = PKGM(24, 3, PKGMConfig(dim=4), rng=np.random.default_rng(0))
        history = PKGMTrainer(
            model, TrainerConfig(epochs=1, batch_size=16, seed=0)
        ).train(store)
        assert len(history.epoch_losses) == 1


class TestParameterServerInstrumentation:
    def test_rpc_counters_mirror_legacy_attributes(self):
        ps = ParameterServer(num_shards=2, learning_rate=0.01)
        ps.register("entities", np.zeros((6, 4)))
        ps.pull("entities", np.array([0, 1, 2]))
        ps.push("entities", np.array([0, 1]), np.ones((2, 4)))
        snapshot = ps.metrics.snapshot()
        assert ps.pull_count == 2  # rows 0..2 span both shards
        assert ps.push_count == 2
        assert snapshot["ps.pull.rows"] == 3
        assert snapshot["ps.push.rows"] == 2
        assert (
            snapshot['ps.pull.shard_rpcs{shard="0"}']
            + snapshot['ps.pull.shard_rpcs{shard="1"}']
            == ps.pull_count
        )

    def test_legacy_counter_assignment_resets_registry_too(self):
        ps = ParameterServer(num_shards=1, learning_rate=0.01)
        ps.register("entities", np.zeros((4, 2)))
        ps.pull("entities", np.array([0]))
        ps.pull_count = 0
        assert ps.metrics.snapshot()["ps.pulls"] == 0

    def test_shard_occupancy_gauges(self):
        ps = ParameterServer(num_shards=2, learning_rate=0.01)
        ps.register("entities", np.zeros((5, 2)))
        snapshot = ps.metrics.snapshot()
        assert snapshot['ps.shard.rows{shard="0"}'] == 3
        assert snapshot['ps.shard.rows{shard="1"}'] == 2
