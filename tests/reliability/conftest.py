"""Fixtures for the reliability suite: a small, untrained PKGM server.

Serving mechanics (admission, deadlines, hedging, degraded answers) do
not depend on trained weights, so the fixture skips pre-training for
speed.
"""

import numpy as np
import pytest

from repro.core import KeyRelationSelector, PKGM, PKGMConfig, PKGMServer
from repro.kg import TripleStore


@pytest.fixture(scope="module")
def server():
    store = TripleStore(
        [
            (0, 0, 10),
            (0, 1, 11),
            (1, 0, 12),
            (1, 2, 13),
            (2, 1, 14),
            (2, 2, 15),
        ]
    )
    selector = KeyRelationSelector(store, {0: 0, 1: 0, 2: 1}, k=2)
    model = PKGM(16, 3, PKGMConfig(dim=4), rng=np.random.default_rng(0))
    return PKGMServer(model, selector)
