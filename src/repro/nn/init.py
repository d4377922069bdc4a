"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so every
model in the reproduction is deterministic given a seed — a requirement
for the paper-vs-measured comparisons in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def uniform(rng: np.random.Generator, shape: Tuple[int, ...], low: float, high: float) -> np.ndarray:
    """Uniform initialization in ``[low, high)``."""
    return rng.uniform(low, high, size=shape)


def normal(rng: np.random.Generator, shape: Tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Gaussian initialization (BERT uses std 0.02)."""
    return rng.normal(0.0, std, size=shape)


def xavier_uniform(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Glorot/Xavier uniform: bound = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def transe_embedding(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """The TransE paper's embedding init: uniform(-6/sqrt(d), 6/sqrt(d))."""
    dim = shape[-1]
    bound = 6.0 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases, padding rows)."""
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    """All-one initialization (LayerNorm gain)."""
    return np.ones(shape)


def identity_stack(count: int, dim: int, noise_std: float = 0.0, rng: np.random.Generator = None) -> np.ndarray:
    """``count`` copies of the d×d identity, optionally perturbed.

    Used to initialize PKGM's per-relation transfer matrices ``M_r`` so
    the relation query module starts near the identity map, which keeps
    early-training scores well conditioned.
    """
    out = np.tile(np.eye(dim), (count, 1, 1))
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("rng is required when noise_std > 0")
        out = out + rng.normal(0.0, noise_std, size=out.shape)
    return out


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out
