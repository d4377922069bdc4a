"""Tests for the parameter-server simulation.

The critical test verifies the worker's closed-form gradients against
the autograd engine — the PS pipeline must optimize exactly the same
objective as the reference trainer.
"""

import numpy as np
import pytest

from repro.core import PKGM, PKGMConfig
from repro.distributed import (
    DistributedConfig,
    DistributedPKGMTrainer,
    ParameterServer,
    PKGMWorker,
)
from repro.kg import TripleStore


def inline_push(table, m, v, step, rows, gradients, lr):
    """``ParameterServer.push``'s update as it was written inline."""
    unique, inverse = np.unique(rows, return_inverse=True)
    accumulated = np.zeros((len(unique), *gradients.shape[1:]))
    np.add.at(accumulated, inverse, gradients)
    step[unique] += 1
    t = step[unique].reshape(-1, *([1] * (gradients.ndim - 1)))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m[unique] = beta1 * m[unique] + (1 - beta1) * accumulated
    v[unique] = beta2 * v[unique] + (1 - beta2) * accumulated**2
    m_hat = m[unique] / (1 - beta1**t)
    v_hat = v[unique] / (1 - beta2**t)
    table[unique] -= lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.fixture
def server():
    ps = ParameterServer(num_shards=3, learning_rate=0.01)
    rng = np.random.default_rng(0)
    ps.register("entities", rng.normal(size=(10, 4)))
    ps.register("relations", rng.normal(size=(3, 4)))
    ps.register("matrices", np.tile(np.eye(4), (3, 1, 1)))
    return ps


class TestParameterServer:
    def test_shard_assignment_balanced(self, server):
        sizes = server.shard_sizes("entities")
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_pull_returns_copies(self, server):
        rows = np.array([1, 2])
        pulled = server.pull("entities", rows)
        pulled[:] = 999.0
        assert not np.any(server.snapshot("entities")[rows] == 999.0)

    def test_push_moves_against_gradient(self, server):
        rows = np.array([5])
        before = server.snapshot("entities")[5].copy()
        server.push("entities", rows, np.ones((1, 4)))
        after = server.snapshot("entities")[5]
        assert np.all(after < before)  # positive grad -> decrease

    def test_checkpoint_roundtrip_preserves_full_state(self, server, tmp_path):
        """state / load_state through a CheckpointManager — the trainer's
        persistence path — carry values AND Adam moments, so training
        resumes bit-exactly after a restore."""
        from repro.reliability import CheckpointManager

        rng = np.random.default_rng(3)
        server.push("entities", np.array([1, 4, 7]), rng.normal(size=(3, 4)))
        server.push("relations", np.array([0]), rng.normal(size=(1, 4)))
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(
            1,
            {
                f"{name}.{part}": value
                for name in server.table_names()
                for part, value in server.state(name).items()
            },
        )
        arrays, _ = manager.load()

        restored = ParameterServer(num_shards=3, learning_rate=0.01)
        restored.register("entities", np.zeros((10, 4)))
        restored.register("relations", np.zeros((3, 4)))
        restored.register("matrices", np.zeros((3, 4, 4)))
        for name in restored.table_names():
            restored.load_state(
                name,
                {part: arrays[f"{name}.{part}"] for part in ("table", "m", "v", "step")},
            )
        for name in ("entities", "relations", "matrices"):
            a, b = server.state(name), restored.state(name)
            for part in ("table", "m", "v", "step"):
                assert np.array_equal(a[part], b[part]), (name, part)
        # Identical pushes after restore produce identical parameters.
        gradient = np.ones((2, 4))
        server.push("entities", np.array([2, 5]), gradient)
        restored.push("entities", np.array([2, 5]), gradient)
        assert np.array_equal(
            server.snapshot("entities"), restored.snapshot("entities")
        )

    def test_restore_missing_table_raises(self, server):
        restored = ParameterServer(num_shards=3)
        with pytest.raises(KeyError, match="unheard_of"):
            restored.load_state("unheard_of", server.state("entities"))

    def test_push_accumulates_duplicate_rows(self):
        ps1 = ParameterServer(num_shards=2, learning_rate=0.01)
        ps2 = ParameterServer(num_shards=2, learning_rate=0.01)
        table = np.ones((4, 3))
        ps1.register("t", table)
        ps2.register("t", table)
        # Duplicate rows in one push == summed gradient in one push.
        ps1.push("t", np.array([1, 1]), np.ones((2, 3)))
        ps2.push("t", np.array([1]), 2 * np.ones((1, 3)))
        assert np.allclose(ps1.snapshot("t"), ps2.snapshot("t"))

    def test_push_equals_the_inline_formula_it_replaced(self):
        """``push`` (and so ``LazyAdam.update``) against the formula the
        server used to run inline, byte for byte: repeated rows in one
        push, rows pushed at different rates, 2-D and 3-D tables."""
        rng = np.random.default_rng(8)
        shapes = {"entities": (50, 6), "matrices": (7, 3, 3)}
        server = ParameterServer(num_shards=3, learning_rate=0.02)
        reference = {}
        for name, shape in shapes.items():
            table = rng.normal(size=shape)
            server.register(name, table)
            reference[name] = (
                table.copy(),
                np.zeros(shape),
                np.zeros(shape),
                np.zeros(shape[0], dtype=np.int64),
            )
        for _ in range(40):
            for name, shape in shapes.items():
                # Low ids more often, so steps differ row to row.
                rows = np.minimum(rng.geometric(0.15, size=12) - 1, shape[0] - 1)
                assert len(np.unique(rows)) < len(rows)
                grads = rng.normal(size=(len(rows), *shape[1:]))
                server.push(name, rows, grads)
                inline_push(*reference[name], rows, grads, 0.02)
        for name in shapes:
            state = server.state(name)
            for key, want in zip(("table", "m", "v", "step"), reference[name]):
                assert np.array_equal(state[key], want)

    def test_push_misaligned_raises(self, server):
        with pytest.raises(ValueError):
            server.push("entities", np.array([0, 1]), np.ones((1, 4)))

    def test_rpc_counters_track_shards(self, server):
        server.pull_count = 0
        server.pull("entities", np.array([0, 3, 6, 9]))  # shards 0,0,0,0
        assert server.pull_count == 1
        server.pull("entities", np.array([0, 1, 2]))  # shards 0,1,2
        assert server.pull_count == 4

    def test_duplicate_registration_raises(self, server):
        with pytest.raises(KeyError):
            server.register("entities", np.zeros((2, 2)))

    def test_renormalize_rows(self, server):
        server._tables["entities"] *= 100
        server.renormalize_rows("entities", 1.0)
        norms = np.linalg.norm(server.snapshot("entities"), axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    @pytest.mark.parametrize("max_norm", [-1.0, 0.0, float("nan")])
    def test_renormalize_rows_refuses_a_non_positive_max_norm(self, server, max_norm):
        before = server.snapshot("entities")
        with pytest.raises(ValueError, match="max_norm"):
            server.renormalize_rows("entities", max_norm)
        assert np.array_equal(server.snapshot("entities"), before)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterServer(num_shards=0)
        with pytest.raises(ValueError):
            ParameterServer(num_shards=1, learning_rate=0)


class TestWorkerGradients:
    def test_closed_form_matches_autograd(self):
        """The PS worker's hand-coded gradients equal autograd's."""
        model = PKGM(10, 3, PKGMConfig(dim=4, margin=2.0), rng=np.random.default_rng(3))
        ps = ParameterServer(num_shards=2, learning_rate=0.01)
        ps.register("entities", model.triple_module.entity_embeddings.weight.data)
        ps.register("relations", model.triple_module.relation_embeddings.weight.data)
        ps.register("matrices", model.relation_module.transfer_matrices.data)
        worker = PKGMWorker(ps, margin=2.0)

        rng = np.random.default_rng(5)
        positives = rng.integers(0, [10, 3, 10], size=(6, 3))
        negatives = positives.copy()
        negatives[:, 2] = (negatives[:, 2] + 3) % 10

        packet = worker.compute(positives, negatives)

        model.zero_grad()
        loss = model.margin_loss(positives, negatives)
        loss.backward()
        assert packet.loss == pytest.approx(loss.item())

        entity_grad = model.triple_module.entity_embeddings.weight.grad
        relation_grad = model.triple_module.relation_embeddings.weight.grad
        matrix_grad = model.relation_module.transfer_matrices.grad

        dense_e = np.zeros_like(entity_grad)
        dense_e[packet.rows["entities"]] = packet.gradients["entities"]
        dense_r = np.zeros_like(relation_grad)
        dense_r[packet.rows["relations"]] = packet.gradients["relations"]
        dense_m = np.zeros_like(matrix_grad)
        dense_m[packet.rows["matrices"]] = packet.gradients["matrices"]

        assert np.allclose(dense_e, entity_grad, atol=1e-10)
        assert np.allclose(dense_r, relation_grad, atol=1e-10)
        assert np.allclose(dense_m, matrix_grad, atol=1e-10)

    def test_several_corruptions_per_positive(self):
        """(K, B, 3) negatives, each compared against its positive."""
        model = PKGM(10, 3, PKGMConfig(dim=4, margin=2.0), rng=np.random.default_rng(3))
        ps = ParameterServer(num_shards=2, learning_rate=0.01)
        ps.register("entities", model.triple_module.entity_embeddings.weight.data)
        ps.register("relations", model.triple_module.relation_embeddings.weight.data)
        ps.register("matrices", model.relation_module.transfer_matrices.data)
        rng = np.random.default_rng(8)
        positives = rng.integers(0, [10, 3, 10], size=(6, 3))
        negatives = rng.integers(0, [10, 3, 10], size=(3, 6, 3))

        packet = PKGMWorker(ps, margin=2.0).compute(positives, negatives)

        loss = model.margin_loss(positives, negatives)
        loss.backward()
        assert packet.loss == pytest.approx(loss.item())
        for name, param in (
            ("entities", model.triple_module.entity_embeddings.weight),
            ("relations", model.triple_module.relation_embeddings.weight),
            ("matrices", model.relation_module.transfer_matrices),
        ):
            dense = np.zeros_like(param.grad)
            dense[packet.rows[name]] = packet.gradients[name]
            assert np.allclose(dense, param.grad, atol=1e-10)
            # Every pulled row is pushed, touched by an active pair or not.
            assert len(packet.gradients[name]) == len(packet.rows[name])

    def test_inactive_pairs_contribute_nothing(self):
        model = PKGM(10, 2, PKGMConfig(dim=4, margin=0.1), rng=np.random.default_rng(1))
        ps = ParameterServer(num_shards=1, learning_rate=0.01)
        ps.register("entities", model.triple_module.entity_embeddings.weight.data)
        ps.register("relations", model.triple_module.relation_embeddings.weight.data)
        ps.register("matrices", model.relation_module.transfer_matrices.data)
        worker = PKGMWorker(ps, margin=0.1)
        positives = np.array([[0, 0, 1]])
        # Make the negative score astronomically worse.
        ps._tables["entities"][2] = 1e6
        negatives = np.array([[0, 0, 2]])
        packet = worker.compute(positives, negatives)
        assert packet.loss == 0.0
        for grads in packet.gradients.values():
            assert np.allclose(grads, 0.0)

    def test_misaligned_batches_raise(self):
        ps = ParameterServer(num_shards=1, learning_rate=0.01)
        ps.register("entities", np.zeros((4, 2)))
        ps.register("relations", np.zeros((2, 2)))
        ps.register("matrices", np.tile(np.eye(2), (2, 1, 1)))
        worker = PKGMWorker(ps, margin=1.0)
        with pytest.raises(ValueError):
            worker.compute(np.zeros((2, 3), dtype=int), np.zeros((3, 3), dtype=int))

    def test_margin_validation(self, server):
        with pytest.raises(ValueError):
            PKGMWorker(server, margin=0.0)


class TestDistributedTraining:
    @pytest.fixture
    def store(self):
        triples = []
        for h in range(20):
            for r in range(3):
                triples.append((h, r, 20 + (h + 2 * r) % 8))
        return TripleStore(triples)

    def test_loss_decreases(self, store):
        model = PKGM(28, 3, PKGMConfig(dim=8), rng=np.random.default_rng(0))
        trainer = DistributedPKGMTrainer(
            model,
            DistributedConfig(num_shards=4, num_workers=4, epochs=12, batch_size=16),
        )
        losses = trainer.train(store)
        assert losses[-1] < losses[0] * 0.7

    def test_staleness_still_converges(self, store):
        model = PKGM(28, 3, PKGMConfig(dim=8), rng=np.random.default_rng(0))
        trainer = DistributedPKGMTrainer(
            model,
            DistributedConfig(
                num_shards=4, num_workers=4, staleness=3, epochs=12, batch_size=16
            ),
        )
        losses = trainer.train(store)
        assert losses[-1] < losses[0] * 0.8

    def test_export_updates_model(self, store):
        model = PKGM(28, 3, PKGMConfig(dim=8), rng=np.random.default_rng(0))
        before = model.triple_module.entity_embeddings.weight.data.copy()
        DistributedPKGMTrainer(
            model, DistributedConfig(epochs=2, batch_size=16)
        ).train(store)
        after = model.triple_module.entity_embeddings.weight.data
        assert not np.allclose(before, after)

    def test_comparable_to_reference_trainer(self, store):
        """PS training reaches the same loss regime as the single-process
        reference (same objective, same sampler)."""
        from repro.core import PKGMTrainer, TrainerConfig

        reference = PKGM(28, 3, PKGMConfig(dim=8), rng=np.random.default_rng(0))
        ref_losses = PKGMTrainer(
            reference,
            TrainerConfig(epochs=12, batch_size=16, learning_rate=0.01, seed=0),
        ).train(store).epoch_losses

        distributed = PKGM(28, 3, PKGMConfig(dim=8), rng=np.random.default_rng(0))
        dist_losses = DistributedPKGMTrainer(
            distributed,
            DistributedConfig(epochs=12, batch_size=16, learning_rate=0.01, seed=0),
        ).train(store)
        assert dist_losses[-1] < ref_losses[-1] * 2.0 + 0.1

    def test_workers_train_with_the_model_margin(self, store, monkeypatch):
        """The first packet's loss is Eq. 4 at the model's margin on the
        rows that packet pulled (nothing is pushed before it)."""
        from repro.core.margin_kernel import MarginStep

        model = PKGM(
            28, 3, PKGMConfig(dim=8, margin=0.5), rng=np.random.default_rng(0)
        )
        tables = (
            model.triple_module.entity_embeddings.weight.data.copy(),
            model.triple_module.relation_embeddings.weight.data.copy(),
            model.relation_module.transfer_matrices.data.copy(),
        )
        calls = []
        compute = PKGMWorker.compute

        def recording(worker, positives, negatives):
            packet = compute(worker, positives, negatives)
            calls.append((positives, negatives, packet))
            return packet

        monkeypatch.setattr(PKGMWorker, "compute", recording)
        DistributedPKGMTrainer(
            model, DistributedConfig(epochs=1, batch_size=16, seed=0)
        ).train(store)
        positives, negatives, packet = calls[0]
        e_rows = packet.rows[PKGMWorker.ENTITY]
        r_rows = packet.rows[PKGMWorker.RELATION]

        def local(triples):
            triples = np.asarray(triples)
            return np.stack(
                [
                    np.searchsorted(e_rows, triples[..., 0]),
                    np.searchsorted(r_rows, triples[..., 1]),
                    np.searchsorted(e_rows, triples[..., 2]),
                ],
                axis=-1,
            )

        entity, relation, transfer = tables
        expected = MarginStep(
            entity[e_rows], relation[r_rows], transfer[r_rows],
            local(positives), local(negatives), 0.5,
        ).loss
        assert packet.loss > 0
        assert packet.loss == expected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistributedConfig(num_shards=0)
        with pytest.raises(ValueError):
            DistributedConfig(staleness=-1)
        with pytest.raises(ValueError):
            DistributedConfig(epochs=0)

    def test_trainer_abandons_batches_on_exhausted_retries(self, store):
        from repro.reliability import FaultPlan, RetryPolicy

        model = PKGM(28, 3, PKGMConfig(dim=8), rng=np.random.default_rng(0))
        trainer = DistributedPKGMTrainer(
            model,
            DistributedConfig(num_shards=2, num_workers=2, epochs=2, batch_size=16),
            faults=FaultPlan(seed=0, rpc_error_prob=0.5),
            retry=RetryPolicy(seed=0),
        )
        losses = trainer.train(store)  # must not raise
        assert len(losses) == 2
        assert trainer.abandoned_batches > 0
        assert trainer.retry_stats.failures > 0
