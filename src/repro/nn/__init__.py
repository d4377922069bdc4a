"""From-scratch numpy neural-network substrate.

Substitutes TensorFlow in the original PKGM implementation: a
reverse-mode autograd :class:`Tensor`, layers, a transformer encoder,
and the optimizers the paper uses.
"""

from . import functional, init, sanitizer
from .attention import MultiHeadAttention
from .gradcheck import check_gradients
from .layers import MLP, Dropout, Embedding, LayerNorm, Linear, Sequential
from .module import Module, Parameter
from .optim import Adam, LazyAdam
from .sanitizer import NumericGuardError
from .tensor import (
    Tensor,
    concat,
    get_op_hook,
    no_grad,
    set_op_hook,
    stack,
    where,
)
from .transformer import TransformerConfig, TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "Adam",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "LazyAdam",
    "Linear",
    "MLP",
    "Module",
    "MultiHeadAttention",
    "NumericGuardError",
    "Parameter",
    "Sequential",
    "Tensor",
    "TransformerConfig",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "check_gradients",
    "concat",
    "functional",
    "get_op_hook",
    "init",
    "no_grad",
    "sanitizer",
    "set_op_hook",
    "stack",
    "where",
]
