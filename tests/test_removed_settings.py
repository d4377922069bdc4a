"""Settings that only tests ever set are constants now.

Each (constructor, keyword) pair below was a field or parameter that no
caller outside the tests passed; it became a module constant equal to
its old default.  Passing it, even at that default, is a ``TypeError``.
"""

import numpy as np
import pytest

from repro.index import IVFFlatIndex
from repro.reliability import (
    AdmissionConfig,
    AIMDLimiter,
    GatewayConfig,
    LatencyModel,
    LoadTestConfig,
    RetryPolicy,
)
from repro.serving import ChaosConfig, PoolConfig, ServeLoadConfig
from repro.stream import ContinualConfig, DeltaIndex, DeltaStreamConfig


def delta_index(**kwargs):
    base = IVFFlatIndex(dim=2, nlist=2, nprobe=2, seed=0)
    base.build(np.arange(8.0).reshape(4, 2), np.arange(4))
    return DeltaIndex(base, **kwargs)


#: (constructor, keyword, the old default).
REMOVED = [
    (RetryPolicy, "max_attempts", 4),
    (RetryPolicy, "base_delay", 0.05),
    (RetryPolicy, "max_delay", 2.0),
    (RetryPolicy, "multiplier", 2.0),
    (RetryPolicy, "jitter", 0.5),
    (RetryPolicy, "budget", None),
    (AdmissionConfig, "min_limit", 1),
    (AdmissionConfig, "increase", 1.0),
    (AdmissionConfig, "decrease", 0.5),
    (AIMDLimiter, "min_limit", 1),
    (AIMDLimiter, "increase", 1.0),
    (AIMDLimiter, "decrease", 0.5),
    (GatewayConfig, "latency_target", 0.1),
    (LatencyModel, "base", 0.004),
    (LatencyModel, "tail_prob", 0.03),
    (LoadTestConfig, "unknown_prob", 0.01),
    (PoolConfig, "deadline_budget", 64.0),
    (ServeLoadConfig, "unknown_prob", 0.0),
    (ChaosConfig, "k", 5),
    (ChaosConfig, "cache_pages", 64),
    (ChaosConfig, "window", 8),
    (ContinualConfig, "learning_rate", 0.05),
    (ContinualConfig, "max_norm", 1.0),
    (delta_index, "config", None),
    (delta_index, "seed", 0),
    (delta_index, "tombstone_ratio", 0.25),
    (delta_index, "skew_ratio", 4.0),
    (delta_index, "min_vectors_for_recluster", 64),
    (DeltaStreamConfig, "add_probability", 0.45),
    (DeltaStreamConfig, "update_probability", 0.35),
    (DeltaStreamConfig, "delete_probability", 0.20),
    (DeltaStreamConfig, "min_live_items", 4),
]


@pytest.mark.parametrize(
    "make, name, default",
    REMOVED,
    ids=[
        f"{'DeltaIndex' if make is delta_index else make.__name__}-{name}"
        for make, name, _ in REMOVED
    ],
)
def test_a_removed_setting_is_refused(make, name, default):
    with pytest.raises(TypeError):
        make(**{name: default})


def test_each_removed_setting_is_listed_once():
    assert len(REMOVED) == len({(make, name) for make, name, _ in REMOVED}) == 32
