"""Optimizers for the numpy autograd engine.

The paper trains PKGM with Adam (lr 1e-4) and fine-tunes BERT with Adam
(lr 2e-5); NCF uses minibatch Adam.  We provide SGD (with momentum),
Adam, and AdamW, plus gradient clipping and a simple warmup scheduler.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import sanitizer as _sanitizer
from .module import Parameter
from .tensor import no_grad


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

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clipping norm.
        """
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += float((param.grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad = param.grad * scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        with no_grad():
            for param in self.parameters:
                if param.grad is None:
                    continue
                grad = param.grad
                if _sanitizer.ENABLED:
                    _sanitizer.check_update("SGD.step", param, grad=grad)
                if self.weight_decay:
                    grad = grad + self.weight_decay * param.data
                if self.momentum:
                    vel = self._velocity.get(id(param))
                    vel = self.momentum * vel + grad if vel is not None else grad
                    self._velocity[id(param)] = vel
                    grad = vel
                param.data = param.data - self.lr * grad
                if _sanitizer.ENABLED:
                    _sanitizer.check_update("SGD.step", param, update=param.data)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimizer used throughout the paper."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        # Per parameter: first moment, second moment and two scratch
        # buffers, allocated the first time it has a gradient.
        self._state: Dict[int, Tuple[np.ndarray, ...]] = {}

    def step(self) -> None:
        """One update, in place and without a temporary.

        Evaluates ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2``,
        ``p = p - lr*(m/bias1) / (sqrt(v/bias2) + eps)`` in that order of
        operations, so the result is the bytes the one-line formulas give.

        ``param.data`` is written in place, never rebound: an array handed
        to ``Parameter(array)`` or read earlier as ``param.data`` aliases
        the live table and sees every step.  Copy it to keep a snapshot.
        """
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        with no_grad():
            for param in self.parameters:
                if param.grad is None:
                    continue
                grad = param.grad
                if _sanitizer.ENABLED:
                    _sanitizer.check_update("Adam.step", param, grad=grad)
                state = self._state.get(id(param))
                if state is None:
                    state = self._state[id(param)] = tuple(
                        np.zeros_like(param.data) for _ in range(4)
                    )
                m, v, num, den = state
                if self.weight_decay:
                    # L2-style decay folded into the gradient (classic Adam).
                    np.multiply(param.data, self.weight_decay, out=den)
                    grad = np.add(grad, den, out=den)
                np.multiply(m, self.beta1, out=m)
                np.multiply(grad, 1 - self.beta1, out=num)
                np.add(m, num, out=m)
                np.multiply(v, self.beta2, out=v)
                np.multiply(grad, grad, out=num)
                np.multiply(num, 1 - self.beta2, out=num)
                np.add(v, num, out=v)
                np.divide(m, bias1, out=num)
                np.multiply(num, self.lr, out=num)
                np.divide(v, bias2, out=den)
                np.sqrt(den, out=den)
                np.add(den, self.eps, out=den)
                np.divide(num, den, out=num)
                np.subtract(param.data, num, out=param.data)
                if _sanitizer.ENABLED:
                    _sanitizer.check_update("Adam.step", param, update=param.data)

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
            self._state[id(param)] = (
                np.array(m, dtype=param.data.dtype),
                np.array(v, dtype=param.data.dtype),
                np.empty_like(param.data),
                np.empty_like(param.data),
            )


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def step(self) -> None:
        decay, self.weight_decay = self.weight_decay, 0.0
        try:
            if decay:
                with no_grad():
                    for param in self.parameters:
                        if param.grad is not None:
                            param.data = param.data * (1.0 - self.lr * decay)
            super().step()
        finally:
            self.weight_decay = decay


class WarmupLinearSchedule:
    """Linear warmup then linear decay, as used for BERT fine-tuning.

    Call :meth:`step` once per optimizer step; it mutates ``optimizer.lr``.
    """

    def __init__(self, optimizer: Optimizer, warmup_steps: int, total_steps: int) -> None:
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if warmup_steps < 0 or warmup_steps > total_steps:
            raise ValueError("warmup_steps must be in [0, total_steps]")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self._step_count = 0

    def step(self) -> float:
        self._step_count += 1
        t = self._step_count
        if self.warmup_steps and t <= self.warmup_steps:
            factor = t / self.warmup_steps
        else:
            remaining = max(self.total_steps - t, 0)
            denom = max(self.total_steps - self.warmup_steps, 1)
            factor = remaining / denom
        self.optimizer.lr = self.base_lr * factor
        return self.optimizer.lr
