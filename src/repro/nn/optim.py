"""Optimizers for the numpy autograd engine.

The paper trains PKGM with Adam (lr 1e-4) and fine-tunes BERT with Adam
(lr 2e-5); NCF uses minibatch Adam.  Adam is the one optimizer here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from . import sanitizer as _sanitizer
from .module import Parameter
from .tensor import no_grad

#: Adam's published defaults (Kingma & Ba, 2015), the only values used.
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8

#: Elements in one row block of a whole-table pass.  ``Adam.step`` runs
#: its 15 ufuncs over six operands (parameter, gradient, both moments,
#: two scratch arrays); at 32,768 float64 elements each is 256 KiB, so a
#: block's six fit a 2 MiB L2 together and every ufunc after the first
#: reads them from cache instead of streaming the whole table from L3.
BLOCK_ELEMENTS = 32_768


def _block_rows(shape: Tuple[int, ...]) -> int:
    """Rows in one block: at most ``BLOCK_ELEMENTS`` elements, at least one row."""
    return max(1, BLOCK_ELEMENTS // max(1, int(np.prod(shape[1:]))))


def row_blocks(shape: Tuple[int, ...]) -> List[slice]:
    """Slices cutting an array of ``shape`` into row blocks along axis 0.

    Indexing with them gives views, so a block of a non-contiguous array
    is still written in place.
    """
    rows = _block_rows(shape)
    return [slice(start, start + rows) for start in range(0, shape[0], rows)]


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


def _adam_state(data: np.ndarray, m=None, v=None) -> Tuple[np.ndarray, ...]:
    """Both moments (zero unless given) and two one-block scratch arrays."""
    scratch = data[: _block_rows(data.shape)].shape
    return (
        np.zeros_like(data) if m is None else np.array(m, dtype=data.dtype),
        np.zeros_like(data) if v is None else np.array(v, dtype=data.dtype),
        np.empty(scratch, dtype=data.dtype),
        np.empty(scratch, dtype=data.dtype),
    )


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimizer used throughout the paper."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.weight_decay = weight_decay
        self._step_count = 0
        # Per parameter: first moment, second moment and two one-block
        # scratch buffers, allocated the first time it has a gradient.
        self._state: Dict[int, Tuple[np.ndarray, ...]] = {}

    def step(self) -> None:
        """One update, in place and without a temporary.

        Evaluates ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2``,
        ``p = p - lr*(m/bias1) / (sqrt(v/bias2) + eps)`` in that order of
        operations, so the result is the bytes the one-line formulas give.
        The sequence runs one :func:`row_blocks` block at a time, so its
        operands stay in cache from one ufunc to the next; every element
        goes through the same expressions, so blocking changes no byte.

        ``param.data`` is written in place, never rebound: an array handed
        to ``Parameter(array)`` or read earlier as ``param.data`` aliases
        the live table and sees every step.  Copy it to keep a snapshot.
        """
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - BETA1**t
        bias2 = 1.0 - BETA2**t
        with no_grad():
            for param in self.parameters:
                if param.grad is None:
                    continue
                data, grad = param.data, param.grad
                if _sanitizer.ENABLED:
                    _sanitizer.check_update("Adam.step", param, grad=grad)
                state = self._state.get(id(param))
                if state is None:
                    state = self._state[id(param)] = _adam_state(data)
                m, v, num_buf, den_buf = state
                for rows in row_blocks(data.shape):
                    p, g, mb, vb = data[rows], grad[rows], m[rows], v[rows]
                    num, den = num_buf[: len(p)], den_buf[: len(p)]
                    if self.weight_decay:
                        # L2-style decay folded into the gradient (classic Adam).
                        np.multiply(p, self.weight_decay, out=den)
                        g = np.add(g, den, out=den)
                    np.multiply(mb, BETA1, out=mb)
                    np.multiply(g, 1 - BETA1, out=num)
                    np.add(mb, num, out=mb)
                    np.multiply(vb, BETA2, out=vb)
                    np.multiply(g, g, out=num)
                    np.multiply(num, 1 - BETA2, out=num)
                    np.add(vb, num, out=vb)
                    np.divide(mb, bias1, out=num)
                    np.multiply(num, self.lr, out=num)
                    np.divide(vb, bias2, out=den)
                    np.sqrt(den, out=den)
                    np.add(den, EPS, out=den)
                    np.divide(num, den, out=num)
                    np.subtract(p, num, out=p)
                if _sanitizer.ENABLED:
                    _sanitizer.check_update("Adam.step", param, update=data)

    def state_dict(self) -> Dict[str, object]:
        """Step count and copies of both moments, in parameter order.

        A parameter that has not been stepped yet reports zero moments.
        """
        first, second = [], []
        for param in self.parameters:
            state = self._state.get(id(param))
            if state is None:
                first.append(np.zeros_like(param.data))
                second.append(np.zeros_like(param.data))
            else:
                first.append(state[0].copy())
                second.append(state[1].copy())
        return {"step": self._step_count, "m": first, "v": second}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore what :meth:`state_dict` returned (scratch is rebuilt)."""
        if not len(state["m"]) == len(state["v"]) == len(self.parameters):
            raise ValueError(
                f"optimizer state holds {len(state['m'])} moments for "
                f"{len(self.parameters)} parameters"
            )
        self._step_count = int(state["step"])
        for param, m, v in zip(self.parameters, state["m"], state["v"]):
            if np.shape(m) != param.shape or np.shape(v) != param.shape:
                raise ValueError(
                    f"moment shapes {np.shape(m)}, {np.shape(v)} "
                    f"!= parameter shape {param.shape}"
                )
            self._state[id(param)] = _adam_state(param.data, m, v)
