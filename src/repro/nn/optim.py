"""Optimizers for the numpy autograd engine.

The paper trains PKGM with Adam (lr 1e-4) and fine-tunes BERT with Adam
(lr 2e-5); NCF uses minibatch Adam.  :class:`Adam` steps whole
parameters (the text encoders, NCF, the baselines); :class:`LazyAdam` is
the same update on the rows of one table a batch touched, which is how
both PKGM trainers pre-train.
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


class LazyAdam:
    """Row-sparse ("lazy") Adam over one embedding-style table.

    The parameter-server update (the paper pre-trains on a TensorFlow PS,
    where a step touches only the rows its batch pulled): ``update``
    moves only the rows it is given, and each row keeps its own step
    count, so a row's bias correction counts the steps that wrote it.
    A table of E rows costs O(rows touched) per step, not O(E).

    ``table`` is held, not copied, and written in place; the moments and
    the per-row ``step`` vector are owned here.  ``state`` /
    ``load_state`` carry all four as ``{"table", "m", "v", "step"}``,
    the layout both PKGM trainers checkpoint.
    """

    STATE_KEYS = ("table", "m", "v", "step")

    def __init__(self, table: np.ndarray, lr: float, name: str = "") -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.table = table
        self.lr = lr
        self.name = name
        self.m = np.zeros_like(table)
        self.v = np.zeros_like(table)
        self.step = np.zeros(len(table), dtype=np.int64)

    def update(self, rows: np.ndarray, grads: np.ndarray) -> None:
        """One Adam step on ``table[rows]``; ``rows`` must be distinct.

        ``grads[i]`` is the whole gradient of row ``rows[i]`` (callers
        with repeated rows sum them first).  Under the numeric guard a
        non-finite gradient or result raises ``NumericGuardError``.
        """
        if _sanitizer.ENABLED:
            _sanitizer.check_update("LazyAdam.update", self, grad=grads)
        step = self.step[rows]
        step += 1
        self.step[rows] = step
        t = step.reshape(-1, *([1] * (grads.ndim - 1)))
        # The one-line formulas, evaluated in the same order on gathered
        # rows: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2, then
        # p -= (lr * m/bias1) / (sqrt(v/bias2) + eps), bias_i = 1 - b_i**t.
        m = self.m[rows]
        m *= BETA1
        num = grads * (1 - BETA1)
        m += num
        self.m[rows] = m
        v = self.v[rows]
        v *= BETA2
        np.multiply(grads, grads, out=num)
        num *= 1 - BETA2
        v += num
        self.v[rows] = v
        np.divide(m, 1 - BETA1**t, out=num)
        num *= self.lr
        den = np.divide(v, 1 - BETA2**t, out=v)
        np.sqrt(den, out=den)
        den += EPS
        num /= den
        p = self.table[rows]
        p -= num
        self.table[rows] = p
        if _sanitizer.ENABLED:
            _sanitizer.check_update("LazyAdam.update", self, update=p)

    def state(self) -> Dict[str, np.ndarray]:
        """Copies of the table, both moments and the step counts."""
        return {key: getattr(self, key).copy() for key in self.STATE_KEYS}

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore what :meth:`state` returned, in place.

        Every key and shape is checked before anything is written, so a
        refused state leaves the table and moments as they were.
        """
        for key in self.STATE_KEYS:
            if key not in state:
                raise KeyError(f"state for {self.name!r} is missing {key!r}")
            expected = getattr(self, key).shape
            if np.shape(state[key]) != expected:
                raise ValueError(
                    f"state[{key!r}] shape {np.shape(state[key])} != {expected}"
                )
        for key in self.STATE_KEYS:
            getattr(self, key)[:] = state[key]
