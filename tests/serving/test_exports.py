"""Every public name in ``repro.serving.__all__`` resolves and imports."""

import repro.serving as serving
from repro.serving import (
    Batch,
    ChaosConfig,
    ChaosReport,
    Coalescer,
    CoalescerConfig,
    PoolConfig,
    PoolError,
    PoolRequest,
    PoolResponse,
    ProtocolError,
    ServeLoadConfig,
    ServeLoadReport,
    Supervisor,
    WorkerHandle,
    drain_frames,
    payload_checksum,
    recv_frame,
    run_batch,
    run_kill_drill,
    run_serve_loadtest,
    send_frame,
    shard_of,
    worker_main,
)


def test_all_names_resolve():
    for name in serving.__all__:
        assert getattr(serving, name) is not None


def test_all_is_sorted_and_complete():
    assert list(serving.__all__) == sorted(serving.__all__)
    exported = {
        Batch,
        ChaosConfig,
        ChaosReport,
        Coalescer,
        CoalescerConfig,
        PoolConfig,
        PoolError,
        PoolRequest,
        PoolResponse,
        ProtocolError,
        ServeLoadConfig,
        ServeLoadReport,
        Supervisor,
        WorkerHandle,
        drain_frames,
        payload_checksum,
        recv_frame,
        run_batch,
        run_kill_drill,
        run_serve_loadtest,
        send_frame,
        shard_of,
        worker_main,
    }
    assert len(exported) == len(serving.__all__)
