"""Eq. 4's margin loss and its exact sub-gradient, without a tape.

The score ``f(h,r,t) = ||h + r - t||_1 + ||M_r h - r||_1`` (Eq. 3) under
the hinge ``[f(pos) + margin - f(neg)]_+`` (Eq. 4-5) has a gradient made
of sign vectors and one GEMM per relation, so training does not need the
autograd graph: :class:`MarginStep` scores a batch when it is built (the
forward phase) and :meth:`MarginStep.gradients` differentiates it (the
backward phase).  Positives and negatives are stacked and stable-sorted
by relation once; each relation block costs ``H_g @ M_r^T`` forward and
two GEMMs backward, ``O((1 + K) * B * d^2)`` in all, and no ``(B, d, d)``
array is ever built.

:class:`~repro.core.trainer.PKGMTrainer` runs it on the model's tables
and :class:`~repro.distributed.parameter_server.PKGMWorker` on pulled
rows; :meth:`repro.core.pkgm.PKGM.margin_loss` (the tape) is the oracle
the tests compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..nn import get_op_hook, sanitizer
from ..nn.layers import check_embedding_ids

#: The forward stages the numeric guard and the op hook see, in order:
#: ``h + r - t``, ``M_r h - r``, the (N,) scores and the (K, B) hinge gaps.
STAGES = ("margin.translate", "margin.transfer", "margin.score", "margin.gap")


@dataclass(frozen=True)
class MarginGradients:
    """Row-sparse gradient of one batch.

    ``entity_rows`` are the distinct entities the batch mentions, in
    ascending order, and ``relation_rows`` the distinct relations; a row
    only inactive pairs touched is listed with a zero gradient.
    ``relation_rows`` indexes both ``relation_grads`` and
    ``transfer_grads``.
    """

    entity_rows: np.ndarray
    entity_grads: np.ndarray
    relation_rows: np.ndarray
    relation_grads: np.ndarray
    transfer_grads: np.ndarray


def _observe(stage: str, out: np.ndarray, operands: Sequence[np.ndarray]) -> None:
    """What ``Tensor._make`` does for a taped op: numeric guard, then hook."""
    if sanitizer.ENABLED:
        sanitizer.check_op(stage, out, operands)
    hook = get_op_hook()
    if hook is not None:
        hook(stage, out)


def check_finite_loss(loss: float) -> None:
    """Both trainers' rule: a non-finite loss stops the run before any update."""
    if not np.isfinite(loss):
        raise FloatingPointError(
            "non-finite margin loss during pre-training; "
            "lower the learning rate or check the input KG"
        )


class MarginStep:
    """One batch of Eq. 4, scored on construction.

    Parameters
    ----------
    entities, relations, transfer:
        The raw ``(E, d)``, ``(R, d)`` and ``(R, d, d)`` tables (or pulled
        rows of them, with ids mapped to row positions).
    positives:
        ``(B, 3)`` triple ids.
    negatives:
        ``(B, 3)`` or ``(K, B, 3)``; each corruption is compared against
        its positive.
    margin:
        The hinge's ``gamma``.

    ``loss`` is ``sum [f(pos) + margin - f(neg)]_+`` and is non-finite
    whenever a score is (a NaN never reads as an inactive pair).
    """

    def __init__(
        self,
        entities: np.ndarray,
        relations: np.ndarray,
        transfer: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
        margin: float,
    ) -> None:
        positives = np.asarray(positives, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        if positives.ndim != 2 or positives.shape[1] != 3 or not len(positives):
            raise ValueError(
                f"expected (N, 3) triples with N >= 1, got {positives.shape}"
            )
        if negatives.ndim not in (2, 3) or negatives.shape[-2:] != positives.shape:
            raise ValueError(
                f"positives {positives.shape} and negatives {negatives.shape} "
                "must align"
            )
        batch = len(positives)
        triples = np.concatenate([positives, negatives.reshape(-1, 3)])
        check_embedding_ids(triples[:, [0, 2]], len(entities))
        check_embedding_ids(triples[:, 1], len(relations))

        order = np.argsort(triples[:, 1], kind="stable")
        heads, rels, tails = triples[order].T
        # Block g is rows bounds[g]:bounds[g + 1], all of one relation.
        bounds = np.r_[0, np.flatnonzero(rels[1:] != rels[:-1]) + 1, len(rels)]
        h, r, t = entities[heads], relations[rels], entities[tails]

        u = h + r - t
        _observe(STAGES[0], u, (h, r, t))
        v = np.empty_like(h)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            np.matmul(h[lo:hi], transfer[rels[lo]].T, out=v[lo:hi])
        v -= r
        _observe(STAGES[1], v, (transfer, h, r))
        scores = np.empty(len(order))
        scores[order] = np.abs(u).sum(axis=1) + np.abs(v).sum(axis=1)
        _observe(STAGES[2], scores, (u, v))
        gap = scores[:batch] - scores[batch:].reshape(-1, batch) + margin
        _observe(STAGES[3], gap, (scores,))
        active = gap > 0
        self.loss = float((gap * active).sum())

        self._transfer = transfer
        self._order, self._bounds = order, bounds
        self._heads, self._rels, self._tails = heads, rels, tails
        self._h, self._u, self._v = h, u, v
        self._active = active

    def gradients(self) -> MarginGradients:
        """The sub-gradient of ``loss`` with respect to the three tables."""
        active = self._active
        # d loss / d score: each positive counts its active corruptions,
        # each active corruption counts -1.
        weight = np.concatenate([active.sum(axis=0), -1.0 * active.reshape(-1)])
        weight = weight[self._order][:, None]
        du = np.sign(self._u)
        du *= weight
        dv = np.sign(self._v)
        dv *= weight

        h, rels, bounds = self._h, self._rels, self._bounds
        dim = h.shape[1]
        dh = np.empty_like(h)
        starts = bounds[:-1]
        transfer_grads = np.empty((len(starts), dim, dim))
        for block, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            np.matmul(dv[lo:hi], self._transfer[rels[lo]], out=dh[lo:hi])
            np.matmul(dv[lo:hi].T, h[lo:hi], out=transfer_grads[block])
        dh += du
        relation_grads = np.add.reduceat(du - dv, starts, axis=0)

        ids = np.concatenate([self._heads, self._tails])
        by_entity = np.argsort(ids, kind="stable")
        ids = ids[by_entity]
        first = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        np.negative(du, out=du)
        entity_grads = np.add.reduceat(
            np.concatenate([dh, du])[by_entity], first, axis=0
        )
        return MarginGradients(
            entity_rows=ids[first],
            entity_grads=entity_grads,
            relation_rows=rels[starts],
            relation_grads=relation_grads,
            transfer_grads=transfer_grads,
        )
