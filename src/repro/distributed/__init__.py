"""Parameter-server training simulation (the paper's 50-PS/200-worker setup).

Row-sharded parameter storage with pull/push semantics, closed-form
worker gradients (verified against the autograd engine), and a
bounded-staleness asynchronous training loop that exports back into a
standard :class:`repro.core.PKGM`.
"""

from .parameter_server import (
    DistributedConfig,
    DistributedPKGMTrainer,
    ParameterServer,
    PKGMWorker,
)

__all__ = [
    "DistributedConfig",
    "DistributedPKGMTrainer",
    "PKGMWorker",
    "ParameterServer",
]
