"""Unit tests for the optimizers."""

import numpy as np
import pytest

from repro.nn import Adam, Linear, Parameter, Tensor
from repro.nn import functional as F


def quadratic_param(start=5.0):
    """A single scalar parameter minimizing f(w) = w^2."""
    return Parameter(np.array([start]))


def run_steps(optimizer, param, steps):
    for _ in range(steps):
        optimizer.zero_grad()
        (param**2).sum().backward()
        optimizer.step()
    return float(param.data[0])


class TestAdam:
    def test_converges_on_quadratic(self):
        w = quadratic_param()
        assert abs(run_steps(Adam([w], lr=0.3), w, 200)) < 1e-3

    def test_bias_correction_first_step(self):
        # After one step with grad g, Adam moves by ~lr * sign(g).
        w = Parameter(np.array([1.0]))
        opt = Adam([w], lr=0.1)
        w.grad = np.array([4.0])
        opt.step()
        assert w.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_fits_linear_regression(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 4))
        w_true = np.array([1.0, -2.0, 3.0, 0.5])
        y = X @ w_true
        model = Linear(4, 1, rng=np.random.default_rng(1))
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = F.mse_loss(model(Tensor(X)).reshape(64), y)
            loss.backward()
            opt.step()
        assert loss.item() < 1e-6

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)
