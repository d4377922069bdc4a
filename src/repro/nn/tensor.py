"""Reverse-mode automatic differentiation on numpy arrays.

This module is the computational substrate for every model in the
reproduction (PKGM, the mini-BERT text encoder, NCF, and the KGE
baselines).  The paper trained with TensorFlow on a parameter-server
cluster; we substitute a small, self-contained autograd engine whose
semantics match the subset of operations those models need.

The design follows the classic tape-based approach: every
:class:`Tensor` records the operation that produced it and closures
that propagate gradients to its parents.  Calling :meth:`Tensor.backward`
runs a topological sort over the recorded graph and accumulates
gradients into every tensor with ``requires_grad=True``.

All arrays are kept in ``float64`` by default so that the numeric
gradient checks in :mod:`repro.nn.gradcheck` are tight; models that
care about memory can pass ``float32`` data explicitly.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import sanitizer as _sanitizer

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Global autograd switch flipped by :class:`no_grad`.  When ``False``,
#: :meth:`Tensor._make` stops recording the graph entirely.
_GRAD_ENABLED = True

#: Optional op-dispatch observer, sharing the sanitizer's interception
#: point in :meth:`Tensor._make`.  ``repro.obs.profile`` installs a
#: callable ``hook(op, data)`` here to count ops per training phase;
#: ``None`` (the default) keeps the hot path branch-predictable.
_OP_HOOK: Optional[Callable[[str, np.ndarray], None]] = None


def set_op_hook(hook: Optional[Callable[[str, np.ndarray], None]]) -> None:
    """Install (or with ``None`` remove) the global op-dispatch hook."""
    global _OP_HOOK
    _OP_HOOK = hook


def get_op_hook() -> Optional[Callable[[str, np.ndarray], None]]:
    """Return the currently installed op-dispatch hook, if any."""
    return _OP_HOOK


class no_grad:
    """Context manager (and decorator) that disables graph recording.

    Inside the scope, ops produce plain constant tensors — no parents,
    no backward closures — which is both faster and the explicit signal
    (enforced by the ``tensor-inplace-grad`` lint rule) that raw
    ``.data`` writes such as optimizer updates and norm constraints are
    intentionally invisible to autograd.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous

    def __call__(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    """Coerce ``value`` to a numpy array of the requested dtype."""
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array data (anything :func:`numpy.asarray` accepts).
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    parents:
        Tensors this tensor was computed from (internal).
    backward_fns:
        One gradient closure per parent, mapping the incoming gradient
        to the parent's gradient contribution (internal).
    name:
        Optional label used in error messages and debugging.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fns", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fns: Sequence[Callable[[np.ndarray], np.ndarray]] = (),
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = tuple(parents)
        self._backward_fns: Tuple[Callable[[np.ndarray], np.ndarray], ...] = tuple(
            backward_fns
        )
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(
            self.data
        )

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fns: Sequence[Callable[[np.ndarray], np.ndarray]],
        op: str = "op",
    ) -> "Tensor":
        if _sanitizer.ENABLED:
            _sanitizer.check_op(op, data, [p.data for p in parents])
        if _OP_HOOK is not None:
            _OP_HOOK(op, data)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, parents=parents, backward_fns=backward_fns)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = ensure_tensor(other)
        out = self.data + other.data
        return Tensor._make(
            out,
            (self, other),
            (
                lambda g: _unbroadcast(g, self.shape),
                lambda g: _unbroadcast(g, other.shape),
            ),
            op="add",
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), (lambda g: -g,), op="neg")

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = ensure_tensor(other)
        out = self.data - other.data
        return Tensor._make(
            out,
            (self, other),
            (
                lambda g: _unbroadcast(g, self.shape),
                lambda g: _unbroadcast(-g, other.shape),
            ),
            op="sub",
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) - self

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = ensure_tensor(other)
        out = self.data * other.data
        return Tensor._make(
            out,
            (self, other),
            (
                lambda g: _unbroadcast(g * other.data, self.shape),
                lambda g: _unbroadcast(g * self.data, other.shape),
            ),
            op="mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = ensure_tensor(other)
        out = self.data / other.data
        return Tensor._make(
            out,
            (self, other),
            (
                lambda g: _unbroadcast(g / other.data, self.shape),
                lambda g: _unbroadcast(-g * self.data / (other.data**2), other.shape),
            ),
            op="div",
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out = self.data**exponent
        return Tensor._make(
            out,
            (self,),
            (lambda g: g * exponent * self.data ** (exponent - 1),),
            op="pow",
        )

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = ensure_tensor(other)
        out = self.data @ other.data

        def grad_a(g: np.ndarray) -> np.ndarray:
            if other.data.ndim == 1:
                # (..., n) = (..., n, m) @ (m,) is not a case we hit; the
                # common case is vec @ mat or mat @ vec.
                ga = np.outer(g, other.data) if self.data.ndim == 2 else g[..., None] * other.data
            else:
                ga = g @ np.swapaxes(other.data, -1, -2)
            return _unbroadcast(ga, self.shape)

        def grad_b(g: np.ndarray) -> np.ndarray:
            if self.data.ndim == 1:
                # vec @ vec -> scalar out; vec @ mat -> vec out.
                gb = self.data * g if np.ndim(g) == 0 else np.outer(self.data, g)
            else:
                gb = np.swapaxes(self.data, -1, -2) @ g
            return _unbroadcast(gb, other.shape)

        return Tensor._make(out, (self, other), (grad_a, grad_b), op="matmul")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, self.shape).copy()
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_expanded, self.shape).copy()

        return Tensor._make(out, (self,), (grad_fn,), op="sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                mask = (self.data == out).astype(self.data.dtype)
                mask /= mask.sum()
                return g * mask
            out_expanded = out if keepdims else np.expand_dims(out, axis)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            mask = (self.data == out_expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return g_expanded * mask

        return Tensor._make(out, (self,), (grad_fn,), op="max")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return Tensor._make(out, (self,), (lambda g: g * out,), op="exp")

    def log(self) -> "Tensor":
        out = np.log(self.data)
        return Tensor._make(out, (self,), (lambda g: g / self.data,), op="log")

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return Tensor._make(out, (self,), (lambda g: g * 0.5 / out,), op="sqrt")

    def abs(self) -> "Tensor":
        out = np.abs(self.data)
        return Tensor._make(out, (self,), (lambda g: g * np.sign(self.data),), op="abs")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self.data * mask
        return Tensor._make(out, (self,), (lambda g: g * mask,), op="relu")

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return Tensor._make(out, (self,), (lambda g: g * (1.0 - out**2),), op="tanh")

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return Tensor._make(out, (self,), (lambda g: g * out * (1.0 - out),), op="sigmoid")

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in BERT)."""
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        inner = c * (x + 0.044715 * x**3)
        t = np.tanh(inner)
        out = 0.5 * x * (1.0 + t)

        def grad_fn(g: np.ndarray) -> np.ndarray:
            dinner = c * (1.0 + 3 * 0.044715 * x**2)
            dt = (1.0 - t**2) * dinner
            return g * (0.5 * (1.0 + t) + 0.5 * x * dt)

        return Tensor._make(out, (self,), (grad_fn,), op="gelu")

    def clip(self, low: float, high: float) -> "Tensor":
        out = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)
        return Tensor._make(out, (self,), (lambda g: g * mask,), op="clip")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self.data.reshape(shape)
        return Tensor._make(out, (self,), (lambda g: g.reshape(self.shape),), op="reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        out = self.data.transpose(axes)
        return Tensor._make(out, (self,), (lambda g: g.transpose(inverse),), op="transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out = np.swapaxes(self.data, a, b)
        return Tensor._make(out, (self,), (lambda g: np.swapaxes(g, a, b),), op="swapaxes")

    def __getitem__(self, index) -> "Tensor":
        out = self.data[index]

        def grad_fn(g: np.ndarray) -> np.ndarray:
            full = np.zeros_like(self.data)
            np.add.at(full, index, g)
            return full

        return Tensor._make(out, (self,), (grad_fn,), op="getitem")

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (embedding lookup): ``out[i...] = self[indices[i...]]``.

        ``indices`` may have any shape; the result has shape
        ``indices.shape + self.shape[1:]``.  Gradients scatter-add back,
        which is exactly the embedding-gradient semantics.
        """
        indices = np.asarray(indices)
        out = self.data[indices]

        def grad_fn(g: np.ndarray) -> np.ndarray:
            full = np.zeros_like(self.data)
            np.add.at(full, indices.reshape(-1), g.reshape(-1, *self.shape[1:]))
            return full

        return Tensor._make(out, (self,), (grad_fn,), op="take_rows")

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (appropriate for a scalar loss).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without requires_grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad).reshape(self.shape)

        order = _topological_order(self)
        grads = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and not node._parents:
                # Leaf: accumulate.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            if node.requires_grad and node._parents:
                # Interior node: optionally record grad for debugging, then
                # push to parents.
                for parent, fn in zip(node._parents, node._backward_fns):
                    if not parent.requires_grad:
                        continue
                    contribution = fn(node_grad)
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + contribution
                    else:
                        grads[key] = contribution


def _topological_order(root: Tensor) -> List[Tensor]:
    """Return tensors reachable from ``root`` in reverse-topological order."""
    order: List[Tensor] = []
    visited = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def ensure_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Wrap ``value`` in a constant :class:`Tensor` if it isn't one."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_fn(i: int) -> Callable[[np.ndarray], np.ndarray]:
        start, stop = offsets[i], offsets[i + 1]

        def grad_fn(g: np.ndarray) -> np.ndarray:
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            return g[tuple(slicer)]

        return grad_fn

    return Tensor._make(
        out, tensors, tuple(make_fn(i) for i in range(len(tensors))), op="concat"
    )


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def make_fn(i: int) -> Callable[[np.ndarray], np.ndarray]:
        def grad_fn(g: np.ndarray) -> np.ndarray:
            return np.take(g, i, axis=axis)

        return grad_fn

    return Tensor._make(
        out, tensors, tuple(make_fn(i) for i in range(len(tensors))), op="stack"
    )


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with gradients flowing to both branches."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out = np.where(condition, a.data, b.data)
    return Tensor._make(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g * condition, a.shape),
            lambda g: _unbroadcast(g * ~condition, b.shape),
        ),
        op="where",
    )


def zeros(shape, requires_grad: bool = False) -> Tensor:
    """A zero-filled tensor of the given shape."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    """A one-filled tensor of the given shape."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)
