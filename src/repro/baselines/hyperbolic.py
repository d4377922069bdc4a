"""Hyperbolic KG embeddings — MuRP (Balazevic et al. 2019).

The paper's related work cites MuRP/ATTH as the hyperbolic branch of
the translational family.  MuRP embeds entities in the Poincaré ball,
applies a diagonal relation matrix in tangent space, a Möbius
translation, and scores by squared hyperbolic distance plus entity
biases:

    h' = exp_0(R_r ∘ log_0(h)),   t' = t ⊕ r
    s(h, r, t) = -d_B(h', t')² + b_h + b_t

All operations are composed from existing autograd ops (tanh, log,
norms); artanh is built from log.  Entities are re-projected into the
ball after every optimizer step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Embedding, Parameter, Tensor, no_grad
from ..nn import functional as F
from ..nn import init
from .scorers import KGEModel

_BALL_EPS = 1e-5
_NORM_EPS = 1e-12


def artanh(x: Tensor) -> Tensor:
    """Inverse hyperbolic tangent via ``0.5 log((1+x)/(1-x))``.

    Inputs are clipped into (-1+eps, 1-eps) for numeric safety.
    """
    x = x.clip(-1.0 + _BALL_EPS, 1.0 - _BALL_EPS)
    return ((1.0 + x) / (1.0 - x)).log() * 0.5


def mobius_add(x: Tensor, y: Tensor) -> Tensor:
    """Möbius addition on the unit Poincaré ball (curvature c = 1)."""
    xy = (x * y).sum(axis=-1, keepdims=True)
    xx = (x * x).sum(axis=-1, keepdims=True)
    yy = (y * y).sum(axis=-1, keepdims=True)
    numerator = x * (1.0 + 2.0 * xy + yy) + y * (1.0 - xx)
    denominator = 1.0 + 2.0 * xy + xx * yy
    return numerator / (denominator + _NORM_EPS)


def expmap0(v: Tensor) -> Tensor:
    """Exponential map at the origin: tangent space -> ball."""
    norm = F.l2_norm(v, axis=-1, eps=_NORM_EPS).reshape(*v.shape[:-1], 1)
    return v * (norm.tanh() / (norm + _NORM_EPS))


def logmap0(y: Tensor) -> Tensor:
    """Logarithmic map at the origin: ball -> tangent space."""
    norm = F.l2_norm(y, axis=-1, eps=_NORM_EPS).reshape(*y.shape[:-1], 1)
    return y * (artanh(norm) / (norm + _NORM_EPS))


def poincare_distance(x: Tensor, y: Tensor) -> Tensor:
    """Hyperbolic distance ``2 artanh(||(-x) ⊕ y||)``."""
    diff = mobius_add(-x, y)
    return artanh(F.l2_norm(diff, axis=-1, eps=_NORM_EPS)) * 2.0


def project_to_ball(array: np.ndarray, max_norm: float = 1.0 - _BALL_EPS) -> np.ndarray:
    """Scale rows with norm >= 1 back inside the ball (in place safe)."""
    norms = np.linalg.norm(array, axis=-1, keepdims=True)
    scale = np.minimum(1.0, max_norm / np.maximum(norms, _NORM_EPS))
    return array * scale


class MuRP(KGEModel):
    """Multi-relational Poincaré embeddings.

    Follows the energy convention of :mod:`repro.baselines`: the MuRP
    similarity (−d² + b_h + b_t) is negated so lower = more plausible.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int,
        rng: Optional[np.random.Generator] = None,
        init_scale: float = 1e-3,
    ) -> None:
        super().__init__(num_entities, num_relations, dim)
        rng = rng if rng is not None else np.random.default_rng(0)
        # Small init keeps points near the origin where the ball is flat.
        self.entities = Embedding(
            num_entities,
            dim,
            rng=rng,
            init_fn=lambda r, s: init.normal(r, s, std=init_scale),
        )
        self.relation_translations = Embedding(
            num_relations,
            dim,
            rng=rng,
            init_fn=lambda r, s: init.normal(r, s, std=init_scale),
        )
        self.relation_scales = Embedding(
            num_relations, dim, rng=rng, init_fn=lambda r, s: init.ones(s)
        )
        self.entity_bias = Parameter(init.zeros((num_entities,)))

    def _transform(self, heads: np.ndarray, relations: np.ndarray) -> Tensor:
        """``h' = exp_0(R_r ∘ log_0(h))``."""
        h = self.entities(heads)
        scales = self.relation_scales(relations)
        return expmap0(logmap0(h) * scales)

    def score(self, heads, relations, tails):
        heads = np.asarray(heads)
        relations = np.asarray(relations)
        tails = np.asarray(tails)
        h_prime = self._transform(heads, relations)
        t = self.entities(tails)
        r = self.relation_translations(relations)
        t_prime = mobius_add(t, r)
        distance = poincare_distance(h_prime, t_prime)
        similarity = (
            -(distance**2) + self.entity_bias[heads] + self.entity_bias[tails]
        )
        return -similarity

    def score_all_tails(self, head, relation):
        heads = np.full(self.num_entities, head)
        relations = np.full(self.num_entities, relation)
        tails = np.arange(self.num_entities)
        return self.score(heads, relations, tails).data

    def score_all_heads(self, relation, tail):
        heads = np.arange(self.num_entities)
        relations = np.full(self.num_entities, relation)
        tails = np.full(self.num_entities, tail)
        return self.score(heads, relations, tails).data

    def post_batch(self):
        with no_grad():
            self.entities.weight.data = project_to_ball(self.entities.weight.data)
            self.relation_translations.weight.data = project_to_ball(
                self.relation_translations.weight.data
            )
