"""--seed changes what is asked, never how much."""

import numpy as np

from perf.harness import Meter
from perf.workloads import WORKLOADS
from perf.workloads.bulk import BulkStore
from perf.workloads.index_churn import IndexChurn
from perf.workloads.online_pool import OnlinePool

from .fakes import EQUAL, FakeHost, calibrator


def _first_round(name: str, seed: int):
    """Round 0 of ``name`` and the ids it asked for."""
    workload = WORKLOADS[name](seed)
    asked = []
    try:
        workload.generate()
        workload.setup(Meter(calibrator(FakeHost()), EQUAL))
        call = workload._call
        workload._call = lambda server, kind, ids, relations: (
            asked.append(ids.copy()),
            call(server, kind, ids, relations),
        )[1]
        result = workload.round(0)
    finally:
        workload.close()
        workload.remove_workdir()
    return result, np.concatenate(asked)


def test_bulk_ram_seed_changes_ids_not_operation_counts():
    first, first_ids = _first_round("bulk_ram", 0)
    second, second_ids = _first_round("bulk_ram", 1)
    again, again_ids = _first_round("bulk_ram", 0)
    assert first.attempted == second.attempted == again.attempted
    assert first.items == second.items
    assert first.failed == second.failed == 0
    assert not np.array_equal(first_ids, second_ids)
    assert np.array_equal(first_ids, again_ids)  # same seed, same inputs


def test_online_pool_request_stream_is_a_function_of_the_seed():
    streams = []
    for seed in (0, 1, 0):
        workload = OnlinePool(seed)
        workload.generate()
        streams.append(workload._requests(3, 128))
    assert len(streams[0]) == len(streams[1]) == 128
    assert streams[0] != streams[1]
    assert streams[0] == streams[2]
    kinds = [kind for kind, _, _ in streams[0]]
    assert kinds.count("serve") > kinds.count("exist") > kinds.count("retrieve") > 0


def test_index_churn_keeps_the_live_set_and_the_corpus_fixed():
    sizes = []
    for seed in (0, 1):
        workload = IndexChurn(seed)
        workload.generate()
        workload.setup(Meter(calibrator(FakeHost()), EQUAL))
        base = workload.base.copy()
        result = workload.round(0)
        assert result.failed == 0 and result.attempted == 4
        assert workload.index.live_count == len(workload.live_ids) == 2048
        sizes.append((result.items, base))
    assert sizes[0][0] == sizes[1][0]
    # The indexed corpus is the deployment: the seed does not move it.
    assert np.array_equal(sizes[0][1], sizes[1][1])


def test_index_churn_flags_an_id_deleted_in_an_earlier_operation():
    workload = IndexChurn(0)
    workload.generate()
    workload.setup(Meter(calibrator(FakeHost()), EQUAL))
    assert workload.round(0).failed == 0
    # Deleted some operations ago, not by the operation that sees it.
    (stale,) = np.setdiff1d(np.arange(2048), workload.live_ids)[:1]
    search = workload.index.search

    def resurrecting(queries, k):
        distances, found = search(queries, k)
        found[0, 0] = stale
        return distances, found

    workload.index.search = resurrecting
    assert workload.round(1).failed == 4


def test_bulk_store_judges_outputs_after_releasing_the_reference():
    workload = BulkStore(0)
    try:
        workload.generate()
        workload.setup(Meter(calibrator(FakeHost()), EQUAL))
        workload.release()
        # The measured rounds run without the model the store came from.
        assert workload.resident is None and workload.catalog is None
        assert workload.round(0).failed == 0
        workload.finish()
        assert workload.pass_failures == 0
        workload.digests[3] = "0" * 64
        workload.finish()
        assert workload.pass_failures == 1
        assert "differ" in workload.failures[0]
    finally:
        workload.close()
        workload.remove_workdir()
