"""ConvE (Dettmers et al. 2018) — the cited convolutional KGE baseline.

ConvE reshapes the head and relation embeddings into a 2-D "image",
stacks them, applies 3x3 convolutions, and projects back to embedding
space; the score is the dot product with the tail embedding.  The
convolution is built from existing autograd ops (pad via concat, one
slice + matmul per kernel offset), so gradients come for free and are
covered by the shared gradcheck tests.

Energy convention as everywhere in :mod:`repro.baselines`: lower is
more plausible, so the dot-product similarity is negated.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import Embedding, Linear, Parameter, Tensor, concat
from ..nn import init
from .scorers import KGEModel


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the last two axes of a (B, C, H, W) tensor."""
    if padding < 0:
        raise ValueError("padding must be >= 0")
    if padding == 0:
        return x
    b, c, h, w = x.shape
    zeros_h = Tensor(np.zeros((b, c, padding, w)))
    x = concat([zeros_h, x, zeros_h], axis=2)
    zeros_w = Tensor(np.zeros((b, c, h + 2 * padding, padding)))
    return concat([zeros_w, x, zeros_w], axis=3)


def conv2d_3x3(x: Tensor, weight: Tensor, padding: int = 1) -> Tensor:
    """3x3 convolution as nine shifted matmuls.

    ``x`` is (B, C, H, W); ``weight`` is (F, C, 3, 3).  Output is
    (B, F, H_out, W_out) with ``H_out = H + 2*padding - 2``.
    """
    b = x.shape[0]
    f, c = weight.shape[0], weight.shape[1]
    x = pad2d(x, padding)
    _, _, hp, wp = x.shape
    h_out, w_out = hp - 2, wp - 2
    if h_out < 1 or w_out < 1:
        raise ValueError("input too small for a 3x3 kernel")

    out = None
    for di in range(3):
        for dj in range(3):
            patch = x[:, :, di : di + h_out, dj : dj + w_out]
            # (B, C, H_out*W_out) -> (B, H_out*W_out, C)
            flat = patch.reshape(b, c, h_out * w_out).swapaxes(1, 2)
            w_offset = weight[:, :, di, dj]  # (F, C)
            term = flat @ w_offset.swapaxes(0, 1)  # (B, HW, F)
            out = term if out is None else out + term
    return out.swapaxes(1, 2).reshape(b, f, h_out, w_out)


class ConvE(KGEModel):
    """Convolutional 2-D knowledge graph embeddings.

    Parameters
    ----------
    dim:
        Entity embedding size; must factor as ``image_shape[0] *
        image_shape[1]``.
    num_filters:
        Convolution output channels.
    image_shape:
        2-D reshape of an embedding (defaults to the most square
        factorization of ``dim``).
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int,
        rng: Optional[np.random.Generator] = None,
        num_filters: int = 8,
        image_shape: Optional[Tuple[int, int]] = None,
    ) -> None:
        super().__init__(num_entities, num_relations, dim)
        rng = rng if rng is not None else np.random.default_rng(0)
        if image_shape is None:
            image_shape = _square_factorization(dim)
        if image_shape[0] * image_shape[1] != dim:
            raise ValueError(
                f"image_shape {image_shape} does not factor dim {dim}"
            )
        if num_filters < 1:
            raise ValueError("num_filters must be >= 1")
        self.image_shape = image_shape
        self.num_filters = num_filters
        self.entities = Embedding(num_entities, dim, rng=rng, init_fn=init.xavier_uniform)
        self.relations = Embedding(num_relations, dim, rng=rng, init_fn=init.xavier_uniform)
        self.filters = Parameter(init.xavier_uniform(rng, (num_filters, 1, 3, 3)))
        conv_h = 2 * image_shape[0]  # stacked head over relation
        conv_w = image_shape[1]
        self.projection = Linear(num_filters * conv_h * conv_w, dim, rng=rng)
        self.bias = Parameter(init.zeros((num_entities,)))

    def _hidden(self, heads: np.ndarray, relations: np.ndarray) -> Tensor:
        """The convolved, projected (batch, dim) query representation."""
        heads = np.asarray(heads)
        relations = np.asarray(relations)
        batch = heads.shape[0]
        h_img = self.entities(heads).reshape(batch, 1, *self.image_shape)
        r_img = self.relations(relations).reshape(batch, 1, *self.image_shape)
        stacked = concat([h_img, r_img], axis=2)  # (B, 1, 2H, W)
        conv = conv2d_3x3(stacked, self.filters, padding=1).relu()
        flat = conv.reshape(batch, -1)
        return self.projection(flat).relu()

    def score(self, heads, relations, tails):
        hidden = self._hidden(heads, relations)
        t = self.entities(np.asarray(tails))
        similarity = (hidden * t).sum(axis=-1) + self.bias[np.asarray(tails)]
        return -similarity

    def score_all_tails(self, head, relation):
        hidden = self._hidden(np.asarray([head]), np.asarray([relation])).data[0]
        return -(self.entities.weight.data @ hidden + self.bias.data)

    def score_all_heads(self, relation, tail):
        # ConvE is asymmetric; scoring all heads requires one query per
        # candidate head.  Chunked for memory.
        energies = np.empty(self.num_entities)
        tails = np.full(256, tail)
        for start in range(0, self.num_entities, 256):
            stop = min(start + 256, self.num_entities)
            heads = np.arange(start, stop)
            relations = np.full(len(heads), relation)
            energies[start:stop] = self.score(heads, relations, tails[: len(heads)]).data
        return energies


def _square_factorization(dim: int) -> Tuple[int, int]:
    """Most square (h, w) with h * w == dim."""
    best = (1, dim)
    for h in range(1, int(np.sqrt(dim)) + 1):
        if dim % h == 0:
            best = (h, dim // h)
    return best
