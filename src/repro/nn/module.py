"""Module and parameter abstractions for the numpy autograd engine.

A :class:`Module` owns :class:`Parameter` leaves and child modules,
mirroring the familiar ``torch.nn.Module`` contract: recursive parameter
iteration, train/eval mode, ``state_dict`` round-tripping, and
``zero_grad``.  Every model in the reproduction (PKGM, mini-BERT, NCF,
the KGE baselines) derives from it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Set, Tuple

import numpy as np

from .tensor import Tensor, no_grad


class Parameter(Tensor):
    """A :class:`Tensor` that is always a trainable leaf."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration happens automatically through
    ``__setattr__``.  Subclasses implement :meth:`forward`.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module (used for dynamic names)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield every parameter in this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively.

        Each parameter is yielded once, under the first path that reaches
        it: a submodule shared by two parents (PKGM's relation module holds
        its triple module) is not listed, or stepped, twice.
        """
        return self._named_parameters(prefix, set())

    def _named_parameters(
        self, prefix: str, seen: Set[int]
    ) -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            if id(param) not in seen:
                seen.add(id(param))
                yield (prefix + name, param)
        for name, module in self._modules.items():
            yield from module._named_parameters(prefix + name + ".", seen)

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Set training mode recursively (enables dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively (disables dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays saved by :meth:`state_dict`.

        Raises ``KeyError`` on missing entries and ``ValueError`` on shape
        mismatch, so silent partial loads cannot happen.
        """
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state_dict missing parameters: {sorted(missing)}")
        for name, param in params.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.shape}, got {value.shape}"
                )
            with no_grad():
                param.data = value.astype(param.data.dtype).copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
