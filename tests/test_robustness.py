"""Failure-injection and robustness tests across the stack.

The chaos classes at the bottom exercise the :mod:`repro.reliability`
stack end-to-end; their fault plans are seeded from ``REPRO_CHAOS_SEED``
(default 0, exported by ``tools/check.sh``) so the gate always replays
one documented fault sequence.
"""

import os

import numpy as np
import pytest

from repro.core import (
    PKGM,
    PKGMConfig,
    PKGMServer,
    PKGMTrainer,
    SnapshotError,
    TrainerConfig,
)
from repro.distributed import DistributedConfig, DistributedPKGMTrainer
from repro.kg import TripleStore
from repro.nn import no_grad
from repro.reliability import CrashEvent, FaultPlan, RetryPolicy
from repro.reliability.checkpoint import CheckpointManager, rng_state
from repro.store import EmbeddingStore

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


class TestTrainerGuards:
    def test_nan_loss_raises_floating_point_error(self):
        """A poisoned embedding table must fail loudly, not train on NaN."""
        store = TripleStore([(0, 0, 1), (1, 0, 2), (2, 0, 3)])
        model = PKGM(5, 1, PKGMConfig(dim=4), rng=np.random.default_rng(0))
        model.triple_module.entity_embeddings.weight.data[0, 0] = np.nan
        trainer = PKGMTrainer(model, TrainerConfig(epochs=1, batch_size=4))
        with pytest.raises(FloatingPointError):
            trainer.train(store)

    def test_poisoned_table_fails_both_trainers(self):
        """The PS trainer used to sum ``gap[gap > 0]``: a NaN gap is not
        ``> 0``, so a poisoned table read as a converged one."""
        store = TripleStore([(0, 0, 1), (1, 0, 2), (2, 0, 3)])

        def poisoned():
            model = PKGM(5, 1, PKGMConfig(dim=4), rng=np.random.default_rng(0))
            model.triple_module.entity_embeddings.weight.data[0] = np.nan
            return model

        single = PKGMTrainer(poisoned(), TrainerConfig(epochs=2, batch_size=4))
        with pytest.raises(FloatingPointError, match="non-finite margin loss"):
            single.train(store)
        sharded = DistributedPKGMTrainer(
            poisoned(), DistributedConfig(epochs=2, batch_size=4, num_workers=2)
        )
        with pytest.raises(FloatingPointError, match="non-finite margin loss"):
            sharded.train(store)
        assert sharded.server.push_count == 0  # raised before pushing

    def test_training_on_single_triple_store(self):
        """Degenerate but valid input: one triple still trains."""
        store = TripleStore([(0, 0, 1)])
        model = PKGM(3, 1, PKGMConfig(dim=4), rng=np.random.default_rng(0))
        history = PKGMTrainer(model, TrainerConfig(epochs=2, batch_size=4)).train(store)
        assert len(history.epoch_losses) == 2


class TestCorruptArtifacts:
    def test_load_server_with_missing_keys_raises(self, tmp_path):
        EmbeddingStore.build(
            tmp_path / "bad_server", {"entity_table": np.zeros((3, 2))}
        ).close()
        with pytest.raises(SnapshotError, match="relation_table"):
            PKGMServer.from_store(tmp_path / "bad_server")


class TestNumericEdgeCases:
    def test_large_embedding_values_stay_finite(self):
        """Scores remain finite even with extreme embeddings."""
        model = PKGM(4, 2, PKGMConfig(dim=4), rng=np.random.default_rng(0))
        with no_grad():
            model.triple_module.entity_embeddings.weight.data *= 1e150
        score = model.score(np.array([[0, 0, 1]]))
        assert np.isfinite(score.data).all()

    def test_zero_dim_rejected_everywhere(self):
        with pytest.raises(ValueError):
            PKGMConfig(dim=0)

    def test_softmax_all_equal_large(self):
        from repro.nn import Tensor, functional as F

        out = F.softmax(Tensor(np.full((2, 4), 1e300))).data
        assert np.allclose(out, 0.25)

    def test_adam_survives_zero_gradients(self):
        from repro.nn import Adam, Parameter

        w = Parameter(np.ones(3))
        opt = Adam([w], lr=0.1)
        w.grad = np.zeros(3)
        opt.step()
        assert np.allclose(w.data, 1.0)


class TestEmptyAndBoundaryInputs:
    def test_empty_store_queries(self):
        store = TripleStore()
        assert store.tails(0, 0) == []
        assert store.relations_of(0) == set()
        assert len(store) == 0

    def test_single_class_vocabulary(self):
        from repro.text import WordTokenizer

        tok = WordTokenizer([])
        assert tok.vocab_size == 5  # specials only
        ids, mask, _ = tok.encode(["unknown"], max_length=4)
        assert ids[1] == tok.unk_id

    def test_serve_item_with_no_triples(self):
        """An item whose category has key relations but which itself has
        none still gets service vectors (pure embedding math)."""
        from repro.core import KeyRelationSelector

        store = TripleStore([(0, 0, 5), (0, 1, 6)])
        # Item 1 in the same category but with zero observed triples.
        selector = KeyRelationSelector(store, {0: 0, 1: 0}, k=2)
        model = PKGM(8, 2, PKGMConfig(dim=4), rng=np.random.default_rng(0))
        server = PKGMServer(model, selector)
        vectors = server.serve(1)
        assert vectors.triple_vectors.shape == (2, 4)
        assert np.isfinite(vectors.sequence()).all()


def _chaos_store(num_entities=40, num_relations=5, num_triples=300):
    rng = np.random.default_rng(CHAOS_SEED)
    triples = {
        (
            int(rng.integers(0, num_entities)),
            int(rng.integers(0, num_relations)),
            int(rng.integers(0, num_entities)),
        )
        for _ in range(num_triples)
    }
    return TripleStore(sorted(triples))


def _chaos_model(num_entities=40, num_relations=5):
    return PKGM(
        num_entities,
        num_relations,
        PKGMConfig(dim=8),
        rng=np.random.default_rng(CHAOS_SEED),
    )


def _chaos_config(epochs=8):
    return DistributedConfig(
        num_shards=4,
        num_workers=4,
        epochs=epochs,
        batch_size=32,
        learning_rate=0.02,
        seed=CHAOS_SEED,
    )


class TestChaosTraining:
    """End-to-end fault plans against the distributed trainer."""

    def test_push_drops_still_converge_within_tolerance(self):
        """≥10% dropped pushes must not change where training lands."""
        store = _chaos_store()
        clean = DistributedPKGMTrainer(_chaos_model(), _chaos_config()).train(store)
        plan = FaultPlan(seed=CHAOS_SEED, push_drop_prob=0.15)
        trainer = DistributedPKGMTrainer(
            _chaos_model(), _chaos_config(), faults=plan
        )
        faulted = trainer.train(store)
        assert trainer.fault_stats.pushes_dropped > 0
        assert faulted[-1] < clean[0]  # it still actually trained
        assert abs(faulted[-1] - clean[-1]) <= 0.10 * abs(clean[-1])

    def test_shard_crash_with_checkpoint_resume_matches_no_fault_run(
        self, tmp_path
    ):
        """Crash + restore replays the checkpointed epochs bit-exactly,
        so the final trajectory matches the fault-free run."""
        store = _chaos_store()
        clean = DistributedPKGMTrainer(_chaos_model(), _chaos_config()).train(store)
        plan = FaultPlan(
            seed=CHAOS_SEED,
            crashes=(CrashEvent(epoch=4, batch=3, shard=1),),
        )
        trainer = DistributedPKGMTrainer(
            _chaos_model(),
            _chaos_config(),
            faults=plan,
            checkpoint_dir=tmp_path,
            resume=False,
        )
        faulted = trainer.train(store)
        assert trainer.fault_stats.shard_crashes == 1
        assert trainer.recoveries == 1
        # Pure crash + recovery (no other faults): identical trajectory.
        assert np.allclose(faulted, clean)

    def test_shard_crash_without_checkpoint_degrades(self):
        """The same crash with no checkpoint keeps training on damaged
        state — reliably worse mid-run, which is what checkpoints buy."""
        store = _chaos_store()
        clean = DistributedPKGMTrainer(_chaos_model(), _chaos_config()).train(store)
        plan = FaultPlan(
            seed=CHAOS_SEED,
            crashes=(CrashEvent(epoch=4, batch=3, shard=1),),
        )
        trainer = DistributedPKGMTrainer(_chaos_model(), _chaos_config(), faults=plan)
        faulted = trainer.train(store)
        assert trainer.recoveries == 0
        # The crash epoch loses trained rows: loss jumps above clean.
        assert faulted[4] > clean[4]

    def test_documented_fault_plan_is_deterministic(self, tmp_path):
        """The acceptance-criteria plan: ≥10% drops + one crash with
        resume.  Two runs under the same seeds are identical."""
        store = _chaos_store()

        def run(directory):
            plan = FaultPlan(
                seed=CHAOS_SEED,
                push_drop_prob=0.10,
                rpc_error_prob=0.02,
                crashes=(CrashEvent(epoch=4, batch=2, shard=0),),
            )
            trainer = DistributedPKGMTrainer(
                _chaos_model(),
                _chaos_config(),
                faults=plan,
                retry=RetryPolicy(seed=CHAOS_SEED),
                checkpoint_dir=directory,
                resume=False,
            )
            return trainer.train(store), trainer

        losses_a, trainer_a = run(tmp_path / "a")
        losses_b, trainer_b = run(tmp_path / "b")
        assert np.allclose(losses_a, losses_b)
        assert trainer_a.fault_stats.pushes_dropped == (
            trainer_b.fault_stats.pushes_dropped
        )
        clean = DistributedPKGMTrainer(_chaos_model(), _chaos_config()).train(store)
        assert abs(losses_a[-1] - clean[-1]) <= 0.10 * abs(clean[-1])

    @pytest.mark.parametrize("field", ["epoch", "batch", "shard"])
    def test_a_crash_the_job_never_reaches_is_refused_before_training(
        self, tmp_path, field
    ):
        """Epoch 8 of an 8-epoch job, the batch after an epoch's last and
        shard 4 of 4 can never fire: each is refused before any training,
        so no checkpoint is written and no epoch runs."""
        store = _chaos_store()
        batches = -(-len(store) // 32)  # _chaos_config's batch size
        crash = {"epoch": 0, "batch": 0, "shard": 0}
        crash[field] = {"epoch": 8, "batch": batches, "shard": 4}[field]
        plan = FaultPlan(seed=CHAOS_SEED, crashes=(CrashEvent(**crash),))
        with pytest.raises(ValueError, match="can never fire"):
            trainer = DistributedPKGMTrainer(
                _chaos_model(),
                _chaos_config(),
                faults=plan,
                checkpoint_dir=tmp_path,
                resume=False,
            )
            trainer.train(store)
        assert list(tmp_path.iterdir()) == []
        if field == "batch":  # refused by train(), past the constructor
            assert trainer.metrics.counter("dist.epochs").value == 0

    def test_the_last_batch_of_the_last_epoch_can_crash(self, tmp_path):
        store = _chaos_store()
        batches = -(-len(store) // 32)
        plan = FaultPlan(
            seed=CHAOS_SEED,
            crashes=(CrashEvent(epoch=7, batch=batches - 1, shard=3),),
        )
        trainer = DistributedPKGMTrainer(
            _chaos_model(),
            _chaos_config(),
            faults=plan,
            checkpoint_dir=tmp_path,
            resume=False,
        )
        trainer.train(store)
        assert trainer.fault_stats.shard_crashes == 1
        assert trainer.recoveries == 1

    def test_killed_distributed_run_resumes_bit_exactly(self, tmp_path):
        """Train 4 epochs, 'die', resume to 8: same as training 8."""
        store = _chaos_store()
        full = DistributedPKGMTrainer(_chaos_model(), _chaos_config(8)).train(store)
        DistributedPKGMTrainer(
            _chaos_model(), _chaos_config(4), checkpoint_dir=tmp_path
        ).train(store)
        resumed = DistributedPKGMTrainer(
            _chaos_model(), _chaos_config(8), checkpoint_dir=tmp_path
        ).train(store)
        assert np.allclose(full, resumed)

    def test_both_trainers_checkpoint_one_layout(self, tmp_path):
        store = _chaos_store()
        PKGMTrainer(
            _chaos_model(),
            TrainerConfig(epochs=1, batch_size=32, seed=CHAOS_SEED),
            checkpoint_dir=tmp_path / "single",
        ).train(store)
        DistributedPKGMTrainer(
            _chaos_model(), _chaos_config(1), checkpoint_dir=tmp_path / "ps"
        ).train(store)
        single, metadata = CheckpointManager(tmp_path / "single").load()
        distributed, _ = CheckpointManager(tmp_path / "ps").load()
        assert sorted(single) == sorted(distributed) == sorted(
            f"{name}.{key}"
            for name in ("entities", "relations", "matrices")
            for key in ("table", "m", "v", "step")
        )
        assert sorted(metadata) == ["epoch", "losses", "rng"]

    def test_a_checkpoint_in_the_old_layout_is_refused(self, tmp_path):
        """Dense Adam's per-parameter keys (``param0`` ...) and its global
        ``adam_step`` cannot seed per-row step counts: the resume names the
        first array it lacks and leaves the model as it was."""
        model = _chaos_model()
        params = [param.data for param in model.parameters()]
        arrays = {}
        for index, table in enumerate(params + params[:2]):
            arrays[f"param{index}"] = table
            arrays[f"m{index}"] = arrays[f"v{index}"] = np.zeros_like(table)
        CheckpointManager(tmp_path).save(
            2,
            arrays,
            metadata={
                "epoch": 2,
                "adam_step": 18,
                "rng": rng_state(np.random.default_rng(0)),
                "losses": [1.0, 0.5],
            },
        )
        trainer = PKGMTrainer(
            model,
            TrainerConfig(epochs=4, batch_size=32, seed=CHAOS_SEED),
            checkpoint_dir=tmp_path,
        )
        before = [table.copy() for table in params]
        with pytest.raises(KeyError, match="entities.table"):
            trainer.train(_chaos_store())
        assert all(np.array_equal(a, b) for a, b in zip(params, before))

    def test_the_ps_resume_looks_up_every_array_before_loading_any(self, tmp_path):
        """A checkpoint lacking the last table's ``v`` is refused before
        the first table is loaded: the PS tables stay as they were."""
        store = _chaos_store()
        DistributedPKGMTrainer(
            _chaos_model(), _chaos_config(1), checkpoint_dir=tmp_path
        ).train(store)
        manager = CheckpointManager(tmp_path)
        arrays, metadata = manager.load()
        del arrays["matrices.v"]
        manager.save(manager.latest() + 1, arrays, metadata=metadata)
        trainer = DistributedPKGMTrainer(
            _chaos_model(), _chaos_config(2), checkpoint_dir=tmp_path
        )
        names = trainer.server.table_names()
        assert names[-1] == "matrices"
        before = {name: trainer.server.snapshot(name) for name in names}
        with pytest.raises(KeyError, match="matrices.v"):
            trainer.train(store)
        for name, table in before.items():
            assert np.array_equal(trainer.server.snapshot(name), table)

    def test_killed_single_process_run_resumes_bit_exactly(self, tmp_path):
        """PKGMTrainer: kill after 3 of 6 epochs, resume, same result."""
        store = _chaos_store()

        def fresh():
            return _chaos_model()

        config6 = TrainerConfig(epochs=6, batch_size=32, seed=CHAOS_SEED)
        full_model = fresh()
        full = PKGMTrainer(full_model, config6).train(store)
        PKGMTrainer(
            fresh(),
            TrainerConfig(epochs=3, batch_size=32, seed=CHAOS_SEED),
            checkpoint_dir=tmp_path,
        ).train(store)
        resumed_model = fresh()
        resumed = PKGMTrainer(
            resumed_model, config6, checkpoint_dir=tmp_path
        ).train(store)
        assert full.epoch_losses == resumed.epoch_losses
        assert np.array_equal(
            full_model.triple_module.entity_embeddings.weight.data,
            resumed_model.triple_module.entity_embeddings.weight.data,
        )
        assert np.array_equal(
            full_model.relation_module.transfer_matrices.data,
            resumed_model.relation_module.transfer_matrices.data,
        )
