"""Unit tests for Module bookkeeping and the core layers."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Sequential,
    Tensor,
    check_gradients,
    no_grad,
)


RNG = np.random.default_rng(3)


class TinyModel(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()) * self.scale


class TestModule:
    def test_named_parameters_recursive(self):
        names = dict(TinyModel().named_parameters())
        assert set(names) == {
            "fc1.weight",
            "fc1.bias",
            "fc2.weight",
            "fc2.bias",
            "scale",
        }

    def test_train_eval_recursive(self):
        model = Sequential(Dropout(0.5), Linear(2, 2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = TinyModel()
        out = model(Tensor(RNG.normal(size=(3, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_roundtrip(self):
        src, dst = TinyModel(), TinyModel()
        dst.load_state_dict(src.state_dict())
        for (_, a), (_, b) in zip(src.named_parameters(), dst.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_is_a_copy(self):
        model = TinyModel()
        state = model.state_dict()
        state["scale"][:] = 99.0
        assert model.scale.data[0] == 1.0

    def test_load_rejects_missing_keys(self):
        model = TinyModel()
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_rejects_shape_mismatch(self):
        model = TinyModel()
        state = model.state_dict()
        state["scale"] = np.ones(5)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_a_shared_submodule_yields_each_parameter_once(self):
        model = Module()
        model.left = model.right = Linear(2, 2, rng=np.random.default_rng(0))
        params = list(model.parameters())
        assert len(params) == len({id(param) for param in params}) == 2


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 6, rng=RNG)
        assert layer(Tensor(RNG.normal(size=(3, 4)))).shape == (3, 6)

    def test_no_bias(self):
        layer = Linear(4, 6, bias=False, rng=RNG)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_batched_input(self):
        layer = Linear(4, 6, rng=RNG)
        assert layer(Tensor(RNG.normal(size=(2, 5, 4)))).shape == (2, 5, 6)

    def test_gradients(self):
        layer = Linear(3, 2, rng=RNG)
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda inp, w, b: layer(inp), [x, layer.weight, layer.bias])


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, rng=RNG)
        assert emb(np.array([[1, 2], [3, 4]])).shape == (2, 2, 4)

    def test_out_of_range_raises(self):
        emb = Embedding(10, 4, rng=RNG)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_scatter(self):
        emb = Embedding(5, 3, rng=RNG)
        out = emb(np.array([2, 2, 4]))
        out.sum().backward()
        assert np.allclose(emb.weight.grad[2], 2.0)
        assert np.allclose(emb.weight.grad[4], 1.0)
        assert np.allclose(emb.weight.grad[0], 0.0)

    def test_renormalize_caps_norms(self):
        emb = Embedding(6, 4, rng=RNG)
        with no_grad():
            emb.weight.data = emb.weight.data * 10.0
        emb.renormalize(max_norm=1.0)
        norms = np.linalg.norm(emb.weight.data, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_renormalize_leaves_small_rows(self):
        emb = Embedding(3, 4, rng=RNG)
        with no_grad():
            emb.weight.data = np.full((3, 4), 0.1)
        before = emb.weight.data.copy()
        emb.renormalize(max_norm=1.0)
        assert np.allclose(emb.weight.data, before)

    @pytest.mark.parametrize("max_norm", [-1.0, 0.0, float("nan")])
    def test_renormalize_refuses_a_non_positive_max_norm(self, max_norm):
        emb = Embedding(3, 4, rng=np.random.default_rng(0))
        before = emb.weight.data.copy()
        with pytest.raises(ValueError, match="max_norm"):
            emb.renormalize(max_norm=max_norm)
        assert np.array_equal(emb.weight.data, before)


class TestLayerNorm:
    def test_output_statistics(self):
        ln = LayerNorm(16)
        out = ln(Tensor(RNG.normal(size=(4, 16)) * 5 + 3)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradients(self):
        ln = LayerNorm(5)
        x = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        check_gradients(lambda inp, g, b: ln(inp), [x, ln.gamma, ln.beta])


class TestDropout:
    def test_eval_mode_identity(self):
        drop = Dropout(0.9, rng=np.random.default_rng(0))
        drop.eval()
        x = Tensor(np.ones((5, 5)))
        assert np.allclose(drop(x).data, 1.0)

    def test_train_mode_zeroes_fraction(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        out = drop(Tensor(np.ones((100, 100)))).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6

    def test_rejects_rate_one(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestSequentialAndMLP:
    def test_sequential_applies_in_order(self):
        model = Sequential(Linear(2, 3, rng=RNG), Linear(3, 1, rng=RNG))
        assert model(Tensor(np.ones((4, 2)))).shape == (4, 1)
        assert len(model) == 2

    def test_mlp_tower_shapes(self):
        # The NCF tower: [32, 16, 8] hidden layers above a 64-dim concat.
        mlp = MLP([64, 32, 16, 8], rng=RNG)
        assert mlp(Tensor(RNG.normal(size=(5, 64)))).shape == (5, 8)

    def test_mlp_rejects_single_size(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_mlp_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP([4, 2], activation="swish")

    def test_mlp_learns_xor(self):
        # Sanity: the stack of layers + Adam can fit a non-linear function.
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        mlp = MLP([2, 8, 1], activation="tanh", rng=np.random.default_rng(5))
        opt = Adam(mlp.parameters(), lr=0.05)
        from repro.nn import functional as F

        for _ in range(400):
            opt.zero_grad()
            logits = mlp(Tensor(X)).reshape(4)
            loss = F.binary_cross_entropy_with_logits(logits, y)
            loss.backward()
            opt.step()
        preds = (mlp(Tensor(X)).data.reshape(4) > 0).astype(float)
        assert np.allclose(preds, y)
