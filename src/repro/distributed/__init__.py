"""Parameter-server training simulation (the paper's 50-PS/200-worker setup).

Row-sharded parameter storage with pull/push semantics, closed-form
worker gradients (verified against the autograd engine), and a
bounded-staleness asynchronous training loop that exports back into a
standard :class:`repro.core.PKGM`.  The module exists for what the
single-process trainer cannot produce: the staleness sweep in
``ablation_distributed.txt``, the PS fault sweep with crash recovery in
``ablation_faults.txt``, and the ``TestChaosTraining`` gate in
``tools/check.sh``.
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
