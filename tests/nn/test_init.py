"""Unit tests for the weight initializers."""

import numpy as np
import pytest

from repro.nn import init


RNG = np.random.default_rng(0)


class TestBasicInitializers:
    def test_uniform_bounds(self):
        out = init.uniform(RNG, (200, 50), -0.3, 0.7)
        assert out.min() >= -0.3 and out.max() < 0.7

    def test_normal_std(self):
        out = init.normal(RNG, (500, 100), std=0.02)
        assert abs(out.std() - 0.02) < 0.002
        assert abs(out.mean()) < 0.001

    def test_zeros_ones(self):
        assert np.all(init.zeros((3, 4)) == 0)
        assert np.all(init.ones((3, 4)) == 1)


class TestXavierKaiming:
    def test_xavier_uniform_bound(self):
        fan_in, fan_out = 60, 40
        out = init.xavier_uniform(RNG, (fan_out, fan_in))
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(out).max() <= bound

    def test_1d_shape_fans(self):
        out = init.xavier_uniform(RNG, (64,))
        assert out.shape == (64,)

    def test_scalar_shape_rejected(self):
        with pytest.raises(ValueError):
            init.xavier_uniform(RNG, ())


class TestTransEInit:
    def test_bound_formula(self):
        dim = 25
        out = init.transe_embedding(RNG, (100, dim))
        assert np.abs(out).max() <= 6.0 / np.sqrt(dim)


class TestIdentityStack:
    def test_exact_identity_without_noise(self):
        out = init.identity_stack(4, 5)
        assert out.shape == (4, 5, 5)
        for matrix in out:
            assert np.array_equal(matrix, np.eye(5))

    def test_noise_perturbs(self):
        out = init.identity_stack(2, 4, noise_std=0.05, rng=np.random.default_rng(1))
        assert not np.array_equal(out[0], np.eye(4))
        assert np.allclose(out[0], np.eye(4), atol=0.3)

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            init.identity_stack(2, 4, noise_std=0.1)
