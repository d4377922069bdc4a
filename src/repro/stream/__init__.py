"""``repro.stream``: deterministic catalog-delta lifecycle.

The paper's billion-scale PKG churns constantly; this package is the
delta path over the frozen-snapshot stack: a seeded, replayable
add/update/delete stream with a checksummed write-ahead delta log
(:mod:`.deltas`), warm-started embeddings and bounded continual
training for stream-born entities (:mod:`.warmstart`,
:mod:`.continual`), incremental IVF maintenance — appends, tombstones,
seeded re-cluster triggers (:mod:`.index_delta`) — and versioned
store+index snapshots promoted through the gateway's drain/swap
lifecycle (:mod:`.snapshot_swap`).  :mod:`.pipeline` ties them into
one write-ahead loop whose crash recovery is a pure log replay, and
:mod:`.chaos` is the drill that proves recovery byte-identical.
"""

from .chaos import StreamChaosReport, run_stream_chaos
from .continual import ContinualConfig, ContinualTrainer, ReplayBuffer
from .deltas import (
    OP_ADD,
    OP_DELETE,
    OP_KINDS,
    OP_NEW_ITEM,
    OP_RETIRE,
    OP_UPDATE,
    CatalogDeltaStream,
    DeltaBatch,
    DeltaLog,
    DeltaLogError,
    DeltaOp,
    DeltaStreamConfig,
    StreamState,
)
from .index_delta import DeltaIndex
from .pipeline import StreamPipeline, StreamReport, StreamRunConfig
from .snapshot_swap import SnapshotSwapError, SnapshotVersioner, swap_gateway
from .warmstart import (
    category_mean_init,
    relation_neighborhood_init,
    seeded_fallback_init,
    warm_start,
)

__all__ = [
    "CatalogDeltaStream",
    "ContinualConfig",
    "ContinualTrainer",
    "DeltaBatch",
    "DeltaIndex",
    "DeltaLog",
    "DeltaLogError",
    "DeltaOp",
    "DeltaStreamConfig",
    "OP_ADD",
    "OP_DELETE",
    "OP_KINDS",
    "OP_NEW_ITEM",
    "OP_RETIRE",
    "OP_UPDATE",
    "ReplayBuffer",
    "SnapshotSwapError",
    "SnapshotVersioner",
    "StreamChaosReport",
    "StreamPipeline",
    "StreamReport",
    "StreamRunConfig",
    "StreamState",
    "category_mean_init",
    "relation_neighborhood_init",
    "run_stream_chaos",
    "seeded_fallback_init",
    "swap_gateway",
    "warm_start",
]
