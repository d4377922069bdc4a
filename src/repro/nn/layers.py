"""Core neural network layers on the numpy autograd engine.

Provides the building blocks shared by the mini-BERT encoder, NCF, and
PKGM: linear projections, embedding tables, layer normalization,
dropout, activation modules, a generic MLP, and ``Sequential``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .optim import row_blocks
from .tensor import Tensor, no_grad


class Linear(Module):
    """Affine projection ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    bias:
        Whether to add a learned bias.
    rng:
        Generator used for Xavier-uniform initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, (out_features, in_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.swapaxes(0, 1)
        if self.bias is not None:
            out = out + self.bias
        return out


def check_embedding_ids(ids: np.ndarray, size: int) -> None:
    """Raise ``IndexError`` for an id outside ``[0, size)``.

    numpy would read a negative id from the end of the table.
    """
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise IndexError(
            f"embedding ids out of range [0, {size}): "
            f"min={ids.min()}, max={ids.max()}"
        )


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Used for token embeddings, entity/relation embeddings, and the
    user/item embedding matrices ``P``/``Q`` of NCF (Eq. 11).
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        init_fn: Optional[Callable[[np.random.Generator, tuple], np.ndarray]] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        init_fn = init_fn if init_fn is not None else init.xavier_uniform
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init_fn(rng, (num_embeddings, embedding_dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        check_embedding_ids(ids, self.num_embeddings)
        return self.weight.take_rows(ids)

    def renormalize(
        self, max_norm: float = 1.0, rows: Optional[np.ndarray] = None
    ) -> None:
        """Project rows with L2 norm above ``max_norm`` back onto the ball.

        TransE constrains entity embeddings to the unit sphere; PKGM
        inherits the constraint via its TransE triple query module.
        Writes ``weight.data`` in place (the array keeps its identity, so
        anything holding it sees the projection) and touches only the rows
        outside the ball.  Norms are taken as ``sqrt(add.reduce(x * x,
        axis=1))``, which is what ``np.linalg.norm(x, axis=1)`` evaluates,
        without its ``conj()`` copy and its table-sized temporaries.

        ``rows`` (distinct ids) limits the pass to those rows, e.g. the
        ones an optimizer step wrote; without it the whole table is
        walked one :func:`row_blocks` block at a time.  Either way a row
        ends with the same bytes.
        """
        if not max_norm > 0:
            raise ValueError(f"max_norm must be positive, got {max_norm}")
        data = self.weight.data
        with no_grad():
            if rows is not None:
                rows = np.asarray(rows)
                x = data[rows]
                outside, scale = _outside_ball(x, max_norm)
                data[rows[outside]] = x[outside] * scale
                return
            for block in row_blocks(data.shape):
                x = data[block]
                outside, scale = _outside_ball(x, max_norm)
                x[outside] *= scale


def _outside_ball(x: np.ndarray, max_norm: float):
    """Positions of the rows of ``x`` outside the ball, and their scales.

    Rows inside the ball would be multiplied by 1.0; a NaN norm is not
    "inside", so a poisoned row is rescaled (to NaN) as well.
    """
    norms = np.sqrt(np.add.reduce(x * x, axis=1))
    outside = np.flatnonzero(~(norms <= max_norm))
    return outside, np.minimum(1.0, max_norm / np.maximum(norms[outside, None], 1e-12))


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered**2).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.training, self.rng)


class ReLU(Module):
    """Elementwise max(x, 0)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    """Gaussian error linear unit (BERT's activation)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Elementwise logistic sigmoid."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = f"layer{i}"
            self.add_module(name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    ``sizes`` lists every layer width including input and output, e.g.
    ``[64, 32, 16, 8]`` builds three linear layers — the tower shape NCF
    uses above the concatenated user/item embeddings (Eq. 14–17).
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activation: str = "relu",
        final_activation: bool = False,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        rng = rng if rng is not None else np.random.default_rng(0)
        act_classes = {"relu": ReLU, "gelu": GELU, "tanh": Tanh, "sigmoid": Sigmoid}
        if activation not in act_classes:
            raise ValueError(f"unknown activation {activation!r}")

        modules: List[Module] = []
        for i, (d_in, d_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            modules.append(Linear(d_in, d_out, rng=rng))
            is_last = i == len(sizes) - 2
            if not is_last or final_activation:
                modules.append(act_classes[activation]())
                if dropout > 0.0:
                    modules.append(Dropout(dropout, rng=rng))
        self.net = Sequential(*modules)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
