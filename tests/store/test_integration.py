"""Store-backed serving: cold start, bit-identity, degraded reads.

The acceptance bar for the storage engine: a server restored from a
store with a page-cache budget *smaller than the table bytes* serves
``service_vectors`` and ``nearest_tails`` bit-identically to the
in-RAM server it was built from, and seeded corruption degrades —
never crashes — the gateway in front of it, with every outcome
accounted.
"""

import numpy as np
import pytest

from repro.core import KeyRelationSelector, PKGM, PKGMConfig, PKGMServer
from repro.core.service import SnapshotError
from repro.kg import TripleStore
from repro.obs.metrics import MetricsRegistry
from repro.reliability import (
    GatewayConfig,
    PKGMGateway,
    StorageFaultPlan,
    StorageFaultStats,
    inject_storage_faults,
)
from repro.store import EmbeddingStore, QuarantinedRowError


@pytest.fixture(scope="module")
def reference():
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


def gateway_over(server, registry=None, replicas=2):
    """The path that answers degraded: a gateway over ``replicas``
    replicas of ``server``, with a budget no latency draw comes near."""
    return PKGMGateway(
        [server] * replicas,
        GatewayConfig(deadline_budget=5.0, hedge_after=None),
        registry=registry,
    )


def serve_one_by_one(gateway, items):
    """Each item through ``gateway`` to completion, in order."""
    responses = []
    for item in items:
        assert gateway.submit(item) is None  # admitted, never shed
        gateway.clock.advance(5.0)
        responses.extend(gateway.step())
    assert [r.entity_id for r in responses] == list(items)
    return responses


@pytest.fixture()
def store_dir(tmp_path, reference):
    reference.save_store(tmp_path / "st", num_shards=2, page_bytes=64).close()
    return tmp_path / "st"


class TestColdStart:
    def test_cache_budget_smaller_than_tables(self, store_dir, reference):
        server = PKGMServer.from_store(store_dir, cache_pages=3)
        assert 3 * 64 < server.store.nbytes  # budget < catalog bytes
        for item in reference.known_items():
            a, b = reference.serve(item), server.serve(item)
            assert np.array_equal(a.key_relations, b.key_relations)
            assert np.array_equal(a.triple_vectors, b.triple_vectors)
            assert np.array_equal(a.relation_vectors, b.relation_vectors)
        assert len(server.store._cache) <= 3
        server.store.close()

    def test_nearest_tails_bit_identical(self, store_dir, reference):
        server = PKGMServer.from_store(store_dir, cache_pages=3)
        d_ref, i_ref = reference.nearest_tails(0, 0, k=5)
        d_st, i_st = server.nearest_tails(0, 0, k=5)
        assert np.array_equal(d_ref, d_st)
        assert np.array_equal(i_ref, i_st)
        server.store.close()

    def test_batch_surfaces_match(self, store_dir, reference):
        server = PKGMServer.from_store(store_dir, cache_pages=3)
        items = reference.known_items()
        assert np.array_equal(
            reference.serve_sequence_batch(items),
            server.serve_sequence_batch(items),
        )
        assert np.array_equal(
            reference.serve_condensed_batch(items),
            server.serve_condensed_batch(items),
        )
        server.store.close()

    def test_save_store_is_byte_deterministic(self, tmp_path, reference):
        for run in ("r1", "r2"):
            reference.save_store(tmp_path / run, num_shards=2, page_bytes=64).close()
        for name in sorted(p.name for p in (tmp_path / "r1").iterdir()):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes(), name

    def test_foreign_store_is_refused(self, tmp_path):
        EmbeddingStore.build(
            tmp_path / "alien", {"entity_table": np.zeros((4, 2))}
        ).close()
        with pytest.raises(SnapshotError, match="missing table"):
            PKGMServer.from_store(tmp_path / "alien")

    def test_wrong_kind_is_refused(self, tmp_path):
        EmbeddingStore.build(
            tmp_path / "plain",
            {
                "entity_table": np.zeros((4, 2)),
                "relation_table": np.zeros((3, 2)),
                "transfer": np.zeros((3, 2, 2)),
                "item_ids": np.zeros(2, dtype=np.int64),
                "key_relations": np.zeros((2, 1), dtype=np.int64),
            },
        ).close()
        with pytest.raises(SnapshotError, match="kind"):
            PKGMServer.from_store(tmp_path / "plain")


class TestDegradedServing:
    def corrupt_entities(self, store_dir):
        """Flip one byte in every entity shard: some items quarantined."""
        for path in sorted(store_dir.glob("entity_table-*.bin")):
            blob = bytearray(path.read_bytes())
            blob[3] ^= 0x40
            path.write_bytes(bytes(blob))

    def test_quarantined_row_raises_from_raw_server(self, store_dir):
        self.corrupt_entities(store_dir)
        server = PKGMServer.from_store(store_dir, cache_pages=3)
        server.store.scrub()
        bad_rows = server.store.quarantined_rows("entity_table")
        assert bad_rows
        with pytest.raises(QuarantinedRowError):
            server.triple_service(
                np.array([bad_rows[0]]), np.array([0])
            )
        server.store.close()

    def test_gateway_never_raises_and_accounts_everything(
        self, store_dir, reference
    ):
        self.corrupt_entities(store_dir)
        registry = MetricsRegistry()
        server = PKGMServer.from_store(store_dir, cache_pages=3, registry=registry)
        server.store.scrub()
        gateway = gateway_over(server, registry)
        items = reference.known_items()
        responses = serve_one_by_one(gateway, items + [99])
        reasons = [r.reason for r in responses]
        assert set(reasons) <= {None, "quarantined", "unknown-id"}
        assert "quarantined" in reasons
        assert reasons[-1] == "unknown-id"
        for response in responses:
            assert response.vectors.degraded == (response.reason is not None)
        stats = gateway.stats
        assert stats.completed_ok == reasons.count(None)
        assert stats.backend_errors == stats.completed_degraded
        assert stats.completed_ok + stats.completed_degraded == len(items) + 1
        snapshot = registry.snapshot()
        assert snapshot["store.quarantined_reads"] > 0
        assert snapshot["gateway.backend_errors"] == stats.backend_errors
        server.store.close()

    def test_a_warm_gateway_answers_as_the_store_does(self, store_dir, reference):
        server = PKGMServer.from_store(store_dir, cache_pages=8)
        # One replica: the warm-up reaches the replica that every later
        # request reaches.
        gateway = gateway_over(server, replicas=1)
        items = reference.known_items()
        # Warm the gateway while the disk is clean.
        assert all(r.ok for r in serve_one_by_one(gateway, items))
        self.corrupt_entities(store_dir)
        server.store.close()  # drop mmaps so damage is re-read
        server.store._cache.clear()
        server.store.scrub()
        quarantined = []
        for item in items:
            try:
                server.serve(item)
            except QuarantinedRowError:
                quarantined.append(item)
        assert quarantined and len(quarantined) < len(items)
        # A warm gateway answers every item the way the store-backed
        # server does: degraded exactly where it raises, else its bytes.
        for response in serve_one_by_one(gateway, items):
            item = response.entity_id
            if item in quarantined:
                assert response.reason == "quarantined"
                assert response.vectors.degraded
                continue
            assert response.ok
            expected = reference.serve(item)
            for name in ("key_relations", "triple_vectors", "relation_vectors"):
                assert np.array_equal(
                    getattr(response.vectors, name), getattr(expected, name)
                ), (item, name)
        assert gateway.stats.backend_errors == len(quarantined)
        server.store.close()

    def test_repair_restores_live_serving(self, tmp_path, store_dir, reference):
        reference.save_store(
            tmp_path / "replica", num_shards=2, page_bytes=64
        ).close()
        self.corrupt_entities(store_dir)
        server = PKGMServer.from_store(store_dir, cache_pages=3)
        assert not server.store.scrub().clean
        gateway = gateway_over(server)
        items = reference.known_items()
        assert not all(r.ok for r in serve_one_by_one(gateway, items))
        replica = EmbeddingStore.open(tmp_path / "replica")
        assert server.store.repair(replica).complete
        replica.close()
        for response in serve_one_by_one(gateway, items):
            assert response.ok
            assert np.array_equal(
                reference.serve(response.entity_id).triple_vectors,
                response.vectors.triple_vectors,
            )
        server.store.close()


class TestSeededStorageChaos:
    def run_drill(self, tmp_path, reference, tag):
        primary = tmp_path / tag / "primary"
        replica = tmp_path / tag / "replica"
        reference.save_store(primary, num_shards=2, page_bytes=64).close()
        reference.save_store(replica, num_shards=2, page_bytes=64).close()
        plan = StorageFaultPlan(seed=3, torn_writes=1, bit_flips=2)
        fault_stats = inject_storage_faults(primary, plan)
        assert isinstance(fault_stats, StorageFaultStats)
        registry = MetricsRegistry()
        server = PKGMServer.from_store(primary, cache_pages=3, registry=registry)
        scrub = server.store.scrub()
        gateway = gateway_over(server, registry)
        responses = serve_one_by_one(gateway, reference.known_items())
        outcomes = tuple((r.entity_id, r.reason) for r in responses)
        donor = EmbeddingStore.open(replica)
        repair = server.store.repair(donor)
        donor.close()
        result = (
            fault_stats.events,
            scrub.bad_pages,
            outcomes,
            repair.repaired,
            registry.snapshot(),
        )
        server.store.close()
        return result

    def test_two_runs_are_identical(self, tmp_path, reference):
        assert self.run_drill(tmp_path, reference, "a") == self.run_drill(
            tmp_path, reference, "b"
        )

    def test_zero_exceptions_and_full_repair(self, tmp_path, reference):
        events, bad_pages, outcomes, repaired, snapshot = self.run_drill(
            tmp_path, reference, "solo"
        )
        assert events and bad_pages
        # Every request was answered, live or with a typed reason.
        assert [item for item, _ in outcomes] == reference.known_items()
        assert {reason for _, reason in outcomes} <= {
            None,
            "quarantined",
            "unknown-id",
        }
        assert sorted(repaired) == sorted(bad_pages)
        assert snapshot["store.pages_repaired"] == len(bad_pages)
        assert snapshot["store.pages_unrepairable"] == 0


class TestStorageFaultDeterminism:
    def test_same_plan_damages_same_bytes(self, tmp_path, reference):
        digests = []
        for run in ("x", "y"):
            target = tmp_path / run
            reference.save_store(target, num_shards=2, page_bytes=64).close()
            plan = StorageFaultPlan(
                seed=11, torn_writes=1, bit_flips=3, lost_fsync_tails=1
            )
            stats = inject_storage_faults(target, plan)
            digest = {
                p.name: p.read_bytes() for p in sorted(target.glob("*.bin"))
            }
            digests.append((stats.events, digest))
        assert digests[0] == digests[1]

    def test_different_seeds_differ(self, tmp_path, reference):
        events = []
        for seed in (0, 1):
            target = tmp_path / f"s{seed}"
            reference.save_store(target, num_shards=2, page_bytes=64).close()
            stats = inject_storage_faults(
                target, StorageFaultPlan(seed=seed, bit_flips=2)
            )
            events.append(stats.events)
        assert events[0] != events[1]

    def test_manifest_truncation_refuses_open(self, tmp_path, reference):
        target = tmp_path / "m"
        reference.save_store(target, num_shards=2, page_bytes=64).close()
        from repro.store import StoreManifestError

        inject_storage_faults(
            target, StorageFaultPlan(truncate_manifest=True)
        )
        with pytest.raises(StoreManifestError):
            EmbeddingStore.open(target)

    def test_damage_requested_on_empty_dir_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            inject_storage_faults(
                tmp_path / "empty", StorageFaultPlan(bit_flips=1)
            )
