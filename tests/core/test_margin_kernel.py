"""The closed-form margin kernel against the autograd tape it replaced.

``PKGM.margin_loss(...).backward()`` is the oracle: on any batch the
kernel's loss and its three gradients must agree with the tape to
1e-10, and every guard the tape had (NaN-propagating loss, id range and
shape errors, the numeric guard naming a stage, the op hook) must still
fire.  ``PKGMTrainer`` must track the tape driving a reference lazy Adam.
The two whole-table passes of the dense path — ``Adam.step`` and
``Embedding.renormalize`` — were rewritten in place; the one-line
formulas they replaced stay here and must give the same bytes, and a
renormalisation limited to some rows must give those rows the same bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PKGM, PKGMConfig, PKGMTrainer, TrainerConfig
from repro.core.margin_kernel import STAGES, MarginStep
from repro.kg import EdgeSampler, TripleStore
from repro.nn import (
    Adam,
    Embedding,
    NumericGuardError,
    Parameter,
    no_grad,
    sanitizer,
    set_op_hook,
)
from repro.nn.optim import BLOCK_ELEMENTS, row_blocks

TOLERANCE = 1e-10


def parameters(model):
    return (
        model.triple_module.entity_embeddings.weight,
        model.triple_module.relation_embeddings.weight,
        model.relation_module.transfer_matrices,
    )


def taped(model, positives, negatives):
    """(loss, entity grad, relation grad, transfer grad) from the tape."""
    model.zero_grad()
    loss = model.margin_loss(positives, negatives)
    loss.backward()
    return (loss.item(), *(param.grad for param in parameters(model)))


def margin_step(model, positives, negatives):
    """The kernel on a model's tables, as ``PKGMTrainer`` builds it."""
    tables = (param.data for param in parameters(model))
    return MarginStep(*tables, positives, negatives, model.config.margin)


def closed_form(model, positives, negatives):
    """The same four from the kernel, gradients scattered to dense."""
    step = margin_step(model, positives, negatives)
    grads = step.gradients()
    dense = [np.zeros_like(param.data) for param in parameters(model)]
    dense[0][grads.entity_rows] = grads.entity_grads
    dense[1][grads.relation_rows] = grads.relation_grads
    dense[2][grads.relation_rows] = grads.transfer_grads
    return (step.loss, *dense)


def assert_matches_tape(model, positives, negatives):
    expected = taped(model, positives, negatives)
    actual = closed_form(model, positives, negatives)
    assert actual[0] == pytest.approx(expected[0], rel=TOLERANCE, abs=TOLERANCE)
    for got, want in zip(actual[1:], expected[1:]):
        assert np.allclose(got, want, rtol=0.0, atol=TOLERANCE)


def small_model(entities=6, relations=3, dim=4, margin=2.0, seed=0):
    return PKGM(
        entities,
        relations,
        PKGMConfig(dim=dim, margin=margin),
        rng=np.random.default_rng(seed),
    )


class TestAgainstTheTape:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 16),
        batch=st.integers(1, 64),
        corruptions=st.sampled_from([None, 1, 2, 3]),
        entities=st.integers(2, 9),
        relations=st.integers(1, 5),
        margin=st.sampled_from([0.05, 2.0, 50.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_loss_and_gradients(
        self, dim, batch, corruptions, entities, relations, margin, seed
    ):
        """Few entities, so ids repeat heavily within and across triples;
        the last relation is never drawn, so one is absent from the batch."""
        rng = np.random.default_rng(seed)
        model = PKGM(
            entities,
            relations + 1,
            PKGMConfig(dim=dim, margin=margin),
            rng=rng,
        )
        # Initial tables sit inside the unit ball; spread them so both
        # active and inactive pairs occur.
        with no_grad():
            model.triple_module.entity_embeddings.weight.data *= rng.uniform(0.5, 20.0)
        bounds = [entities, relations, entities]
        positives = rng.integers(0, bounds, size=(batch, 3))
        shape = (batch, 3) if corruptions is None else (corruptions, batch, 3)
        negatives = rng.integers(0, bounds, size=shape)
        assert_matches_tape(model, positives, negatives)

    def test_head_equals_tail(self):
        model = small_model()
        positives = np.array([[1, 0, 1], [2, 1, 2]])
        negatives = np.array([[3, 0, 3], [2, 1, 4]])
        assert_matches_tape(model, positives, negatives)

    def test_batch_of_one(self):
        model = small_model()
        assert_matches_tape(model, np.array([[0, 2, 5]]), np.array([[[0, 2, 1]]]))

    def test_absent_relation_is_not_listed(self):
        model = small_model(relations=4)
        step = margin_step(model, np.array([[0, 3, 1], [1, 0, 2]]), np.array([[0, 3, 4], [5, 0, 2]]))
        grads = step.gradients()
        assert grads.relation_rows.tolist() == [0, 3]
        assert grads.entity_rows.tolist() == [0, 1, 2, 4, 5]
        assert grads.transfer_grads.shape == (2, 4, 4)

    def test_all_inactive_batch_has_zero_gradients(self):
        """Zero arrays for every mentioned row, not a missing gradient."""
        model = small_model(margin=0.1)
        model.triple_module.entity_embeddings.weight.data[2] = 1e6
        positives, negatives = np.array([[0, 0, 1]]), np.array([[0, 0, 2]])
        step = margin_step(model, positives, negatives)
        grads = step.gradients()
        assert step.loss == 0.0
        assert grads.entity_rows.tolist() == [0, 1, 2]
        for array in (grads.entity_grads, grads.relation_grads, grads.transfer_grads):
            assert array.shape[0] > 0 and not array.any()
        assert_matches_tape(model, positives, negatives)

    def test_trainer_tracks_the_taped_loop(self):
        """Three epochs of ``PKGMTrainer`` against the tape driving an
        in-test lazy Adam and a projection of the entity rows it wrote
        (of every entity row, before the first update)."""
        rng = np.random.default_rng(7)
        store = TripleStore(
            map(tuple, rng.integers(0, [30, 4, 30], size=(200, 3)))
        )
        config = TrainerConfig(epochs=3, batch_size=32, negatives_per_edge=2, seed=5)
        model, twin = small_model(30, 4, 8, seed=1), small_model(30, 4, 8, seed=1)
        history = PKGMTrainer(model, config).train(store)

        max_norm = config.entity_max_norm
        moments = [{} for _ in range(3)]
        sampler = EdgeSampler.with_uniform(
            store,
            batch_size=config.batch_size,
            num_entities=30,
            num_relations=4,
            rng=np.random.default_rng(config.seed),
            negatives_per_edge=config.negatives_per_edge,
            corrupt_relation_prob=config.corrupt_relation_prob,
        )
        losses = []
        for _ in range(config.epochs):
            total = 0.0
            for batch in sampler.epoch():
                twin.zero_grad()
                loss = twin.margin_loss(batch.positives, batch.negatives)
                loss.backward()
                triples = np.concatenate([batch.positives, batch.negatives.reshape(-1, 3)])
                entity_rows = np.unique(triples[:, [0, 2]])
                relation_rows = np.unique(triples[:, 1])
                rows = (entity_rows, relation_rows, relation_rows)
                if not moments[1]:
                    # The first update projects the whole table first.
                    project_rows(twin, np.arange(30), max_norm)
                for param, state, touched in zip(parameters(twin), moments, rows):
                    reference_lazy_adam(
                        param.data, state, touched, param.grad[touched],
                        config.learning_rate,
                    )
                project_rows(twin, entity_rows, max_norm)
                total += loss.item()
            losses.append(total / len(store))
        assert np.allclose(history.epoch_losses, losses, rtol=0.0, atol=1e-9)
        for ours, theirs in zip(parameters(model), parameters(twin)):
            assert np.allclose(ours.data, theirs.data, rtol=0.0, atol=1e-9)


def reference_lazy_adam(table, state, rows, grads, lr):
    """Adam on ``table[rows]`` only, each row with its own step count, at
    Adam's published ``betas = (0.9, 0.999)`` and ``eps = 1e-8``."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for row, grad in zip(rows, grads):
        t, m, v = state.get(row, (0, 0.0, 0.0))
        t += 1
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        state[row] = (t, m, v)
        table[row] -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)


def project_rows(model, rows, max_norm):
    """TransE's ball constraint on the given entity rows, as a formula."""
    table = model.triple_module.entity_embeddings.weight.data
    norms = np.linalg.norm(table[rows], axis=1, keepdims=True)
    table[rows] *= np.minimum(1.0, max_norm / np.maximum(norms, 1e-12))


class TestGuards:
    POSITIVES = np.array([[0, 0, 1], [2, 1, 3]])
    NEGATIVES = np.array([[0, 0, 4], [5, 1, 3]])

    @pytest.mark.parametrize("table", [0, 1, 2])
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_poisoned_table_gives_non_finite_loss(self, table, poison):
        model = small_model()
        parameters(model)[table].data[0, ..., 0] = poison
        with np.errstate(invalid="ignore"):
            step = margin_step(model, self.POSITIVES, self.NEGATIVES)
        assert not np.isfinite(step.loss)

    @pytest.mark.parametrize(
        "triple", [[-1, 0, 1], [6, 0, 1], [0, 0, -1], [0, 0, 6], [0, -1, 1], [0, 3, 1]]
    )
    def test_id_out_of_range_raises_index_error(self, triple):
        model = small_model()
        with pytest.raises(IndexError, match="out of range"):
            margin_step(model, np.array([triple]), self.NEGATIVES[:1])
        with pytest.raises(IndexError, match="out of range"):
            margin_step(model, self.POSITIVES[:1], np.array([[triple]]))

    @pytest.mark.parametrize(
        "positives, negatives",
        [
            (np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int)),
            (np.zeros(3, dtype=int), np.zeros(3, dtype=int)),
            (np.zeros((0, 3), dtype=int), np.zeros((0, 3), dtype=int)),
            (np.zeros((2, 3), dtype=int), np.zeros((3, 3), dtype=int)),
            (np.zeros((2, 3), dtype=int), np.zeros((2, 3, 3), dtype=int)),
            (np.zeros((2, 3), dtype=int), np.zeros((1, 1, 2, 3), dtype=int)),
        ],
    )
    def test_bad_shapes_raise_value_error(self, positives, negatives):
        with pytest.raises(ValueError):
            margin_step(small_model(), positives, negatives)

    def test_guard_names_the_stage(self):
        def stage_of(model, margin=2.0):
            tables = [param.data for param in parameters(model)]
            with sanitizer.guard(), np.errstate(all="ignore"):
                with pytest.raises(NumericGuardError) as info:
                    MarginStep(*tables, self.POSITIVES, self.NEGATIVES, margin)
            return info.value.op

        model = small_model()
        model.triple_module.entity_embeddings.weight.data[0, 0] = np.nan
        assert stage_of(model) == "margin.translate"
        model = small_model()
        model.relation_module.transfer_matrices.data[0, 0, 0] = np.inf
        assert stage_of(model) == "margin.transfer"
        # Finite differences whose L1 sum overflows.
        model = small_model()
        model.triple_module.entity_embeddings.weight.data[0] = 1e308
        assert stage_of(model) == "margin.score"
        # Finite scores, and a margin that overflows the second gap.
        model = small_model()
        model.triple_module.entity_embeddings.weight.data[2, 0] = 5e307
        assert stage_of(model, margin=1e308) == "margin.gap"

    def test_guard_off_checks_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sanitizer, "check_op", lambda *a, **k: calls.append(a))
        model = small_model()
        margin_step(model, self.POSITIVES, self.NEGATIVES)
        assert calls == []
        with sanitizer.guard():
            margin_step(model, self.POSITIVES, self.NEGATIVES)
        assert [call[0] for call in calls] == list(STAGES)

    def test_op_hook_sees_the_forward_stages(self):
        seen = []
        set_op_hook(lambda op, data: seen.append(op))
        try:
            step = margin_step(small_model(), self.POSITIVES, self.NEGATIVES)
            step.gradients()
        finally:
            set_op_hook(None)
        assert seen == list(STAGES)


def reference_adam_step(params, grads, moments, t, lr, weight_decay):
    """``Adam.step`` as it was: the one-line formulas, a fresh array each,
    at Adam's published ``betas = (0.9, 0.999)`` and ``eps = 1e-8``."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bias1, bias2 = 1.0 - beta1**t, 1.0 - beta2**t
    for index, grad in enumerate(grads):
        if grad is None:
            continue
        if weight_decay:
            grad = grad + weight_decay * params[index]
        m, v = moments.get(index, (None, None))
        m = beta1 * m + (1 - beta1) * grad if m is not None else (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2 if v is not None else (1 - beta2) * grad**2
        moments[index] = (m, v)
        m_hat = m / bias1
        v_hat = v / bias2
        params[index] = params[index] - lr * m_hat / (np.sqrt(v_hat) + eps)


class TestInPlacePassesKeepTheBytes:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_step_equals_the_formula(self, weight_decay):
        """Every shape the blocked step cuts differently, against the
        formula: several blocks with a ragged last one (0 and 4), a
        parameter smaller than one block (1, 2), a 1-D one without a
        gradient (3), a non-contiguous view (5) and a float32 table (6)."""
        rng = np.random.default_rng(11)
        ragged = 2 * (BLOCK_ELEMENTS // 8) + 37
        shapes = [(ragged, 8), (5, 8), (5, 8, 8), (3,), (70, 32, 32), (600, 24), (40, 8)]
        dtypes = [np.float64] * 6 + [np.float32]
        assert len(row_blocks(shapes[0])) == len(row_blocks(shapes[4])) == 3
        reference = [
            rng.normal(size=shape).astype(dtype) for shape, dtype in zip(shapes, dtypes)
        ]
        params = [Parameter(np.zeros(1)) for _ in shapes]
        # Every other column of a wider array: written through the view.
        wide = np.zeros((600, 48))
        wide[:, ::2] = reference[5]
        with no_grad():
            for param, array in zip(params, reference):
                param.data = array.copy()
            params[5].data = wide[:, ::2]
        assert not params[5].data.flags.c_contiguous
        lr = 0.02
        optimizer = Adam(params, lr=lr, weight_decay=weight_decay)
        tables = [param.data for param in params]
        moments = {}
        for t in range(1, 26):
            grads = []
            for index, (shape, dtype) in enumerate(zip(shapes, dtypes)):
                # The fourth parameter never has a gradient; the first has
                # none on the first steps; gradients are row-sparse.
                if index == 3 or (index == 0 and t < 4):
                    grads.append(None)
                    continue
                grad = np.zeros(shape, dtype=dtype)
                rows = rng.choice(shape[0], size=max(1, shape[0] // 4), replace=False)
                grad[rows] = rng.normal(size=(len(rows), *shape[1:])) * 10.0 ** rng.integers(-6, 3)
                grads.append(grad)
            for param, grad in zip(params, grads):
                param.grad = None if grad is None else grad.copy()
            optimizer.step()
            reference_adam_step(reference, grads, moments, t, lr, weight_decay)
            state = optimizer.state_dict()
            assert state["step"] == t
            for index, param in enumerate(params):
                # In place: the table keeps its identity and stays writable.
                assert param.data is tables[index]
                assert param.data.flags.writeable
                assert param.data.dtype == dtypes[index]
                assert np.array_equal(param.data, reference[index])
                m, v = moments.get(index, (np.zeros(shapes[index]),) * 2)
                assert np.array_equal(state["m"][index], m)
                assert np.array_equal(state["v"][index], v)
            assert np.array_equal(wide[:, ::2], reference[5])
            assert not wide[:, 1::2].any()

    def test_a_parameter_listed_twice_is_stepped_twice(self):
        """A list that names a parameter twice steps it twice, sharing one
        pair of moments and one ``t``: Adam takes the list it is given
        (``Module.parameters`` lists each parameter once)."""
        rng = np.random.default_rng(5)
        shape = (BLOCK_ELEMENTS // 8 + 11, 8)
        param = Parameter(rng.normal(size=shape))
        reference = [param.data.copy()]
        optimizer = Adam([param, param], lr=0.02)
        moments = {}
        for t in range(1, 6):
            grad = rng.normal(size=shape)
            param.grad = grad.copy()
            optimizer.step()
            for _ in range(2):
                reference_adam_step(reference, [grad], moments, t, 0.02, 0.0)
            assert np.array_equal(param.data, reference[0])

    def test_adam_state_round_trip_resumes_exactly(self):
        """Resumed mid-run on a parameter of two blocks, the last ragged."""
        rng = np.random.default_rng(3)
        shape = (BLOCK_ELEMENTS // 4 + 5, 4)
        assert len(row_blocks(shape)) == 2
        grads = rng.normal(size=(10, *shape))
        straight = Parameter(np.ones(shape))
        optimizer = Adam([straight], lr=0.05)
        for grad in grads[:5]:
            straight.grad = grad
            optimizer.step()
        state = optimizer.state_dict()
        resumed = Parameter(straight.data.copy())
        other = Adam([resumed], lr=0.05)
        other.load_state_dict(state)
        for grad in grads[5:]:
            straight.grad = resumed.grad = grad
            optimizer.step()
            other.step()
        assert np.array_equal(straight.data, resumed.data)
        assert all(
            np.array_equal(a, b)
            for key in ("m", "v")
            for a, b in zip(optimizer.state_dict()[key], other.state_dict()[key])
        )
        # The state is a copy: stepping on does not reach back into it.
        assert not np.array_equal(state["m"][0], optimizer.state_dict()["m"][0])
        with pytest.raises(ValueError):
            other.load_state_dict({"step": 1, "m": [], "v": []})
        with pytest.raises(ValueError):
            other.load_state_dict({"step": 1, "m": [np.zeros(3)], "v": [np.zeros(3)]})

    @pytest.mark.parametrize("max_norm", [1.0, 0.25, 1e-13])
    def test_renormalize_equals_the_expression(self, max_norm):
        """Over three row blocks, with special rows on both sides of the
        first block edge."""
        rng = np.random.default_rng(2)
        edge = BLOCK_ELEMENTS // 6
        rows = 2 * edge + 50
        assert len(row_blocks((rows, 6))) == 3
        table = Embedding(rows, 6, rng=rng)
        data = table.weight.data
        data *= rng.uniform(0.0, 4.0, size=(rows, 1))
        data[3] = 0.0
        data[4] /= np.linalg.norm(data[4])  # on the sphere, give or take an ulp
        data[5, 2] = np.nan
        data[6, 0] = np.inf
        data[edge - 1, 3] = np.nan
        data[edge] *= 100.0
        # Exactly on the ball: left as it is.  (Below the expression's
        # 1e-12 floor it would shrink an in-ball row that the pass skips.)
        on_ball = [7, edge + 1] if max_norm >= 1e-12 else []
        for row in on_ball:
            data[row] = 0.0
            data[row, row % 6] = max_norm
        norms = np.linalg.norm(data, axis=1, keepdims=True)
        assert (norms[on_ball, 0] == max_norm).all()
        with np.errstate(invalid="ignore"):
            expected = data * np.minimum(1.0, max_norm / np.maximum(norms, 1e-12))
            table.renormalize(max_norm)
        assert np.array_equal(table.weight.data, expected, equal_nan=True)
        assert table.weight.data is data

    def test_renormalize_some_rows_gives_them_the_whole_table_bytes(self):
        """The rows listed end as the whole-table pass leaves them (a NaN
        row included); every other row keeps its bytes."""
        def table():
            rng = np.random.default_rng(4)
            embedding = Embedding(40, 6, rng=rng)
            data = embedding.weight.data
            data *= rng.uniform(0.0, 4.0, size=(40, 1))
            data[7, 1] = np.nan
            return embedding

        some, whole = table(), table()
        before = some.weight.data.copy()
        rows = np.array([0, 3, 7, 8, 21, 39])
        with np.errstate(invalid="ignore"):
            some.renormalize(0.5, rows=rows)
            whole.renormalize(0.5)
        others = np.setdiff1d(np.arange(40), rows)
        assert np.array_equal(some.weight.data[rows], whole.weight.data[rows], equal_nan=True)
        assert np.array_equal(some.weight.data[others], before[others])
        assert not np.array_equal(before[others], whole.weight.data[others])
