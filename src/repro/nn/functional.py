"""Free-standing functional operations built on :class:`repro.nn.Tensor`.

These mirror the subset of ``torch.nn.functional`` the reproduction
needs: stable softmax / log-softmax, the classification and ranking
losses used by PKGM and the downstream task models, and a handful of
utility transforms.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .tensor import Tensor, ensure_tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy between ``logits`` of shape (N, C) and integer ``labels``.

    This is the fine-tuning loss for item classification (Eq. 10 in the
    paper, followed by cross entropy over category labels).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected (N, C) logits, got shape {logits.shape}")
    n = logits.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), labels]
    loss = -picked
    return _reduce(loss, reduction)


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: Union[np.ndarray, Tensor], reduction: str = "mean"
) -> Tensor:
    """Numerically stable BCE on raw logits.

    Uses the identity ``bce = max(x, 0) - x*y + log(1 + exp(-|x|))`` so the
    loss never overflows.  This is the NCF objective (Eq. 19).
    """
    if isinstance(targets, Tensor):
        targets = targets.data
    targets = np.asarray(targets, dtype=np.float64)
    zero = logits * 0.0
    pos = _maximum(logits, zero)
    loss = pos - logits * targets + ((-logits.abs()).exp() + 1.0).log()
    return _reduce(loss, reduction)


def margin_ranking_loss(
    positive_scores: Tensor,
    negative_scores: Tensor,
    margin: float,
    reduction: str = "sum",
) -> Tensor:
    """Margin-based ranking loss ``[pos + γ - neg]_+`` (paper Eq. 4–5).

    Positive triples should score *lower* than negatives by at least
    ``margin``, matching TransE's distance-style scoring.
    """
    gap = positive_scores - negative_scores + margin
    loss = gap.relu()
    return _reduce(loss, reduction)


def mse_loss(prediction: Tensor, target: Union[np.ndarray, Tensor], reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    target = ensure_tensor(target)
    return _reduce((prediction - target) ** 2, reduction)


def l1_norm(x: Tensor, axis: int = -1) -> Tensor:
    """L1 norm along ``axis`` — TransE's distance (Eq. 1–2)."""
    return x.abs().sum(axis=axis)


def l2_norm(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2 norm along ``axis`` with an epsilon for gradient stability at 0."""
    return ((x**2).sum(axis=axis) + eps).sqrt()


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows of ``x`` onto the unit L2 ball (TransE entity constraint)."""
    norms = ((x**2).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norms


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-rate)``."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask


def _maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max of two tensors via relu identity."""
    return (a - b).relu() + b


def _reduce(loss: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")
