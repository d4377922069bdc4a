"""Tests for the seeded fault-injection harness."""

import numpy as np
import pytest

from repro.distributed import ParameterServer
from repro.reliability import (
    CrashEvent,
    FaultPlan,
    FaultyParameterServer,
    RPCError,
)


def make_server():
    server = ParameterServer(num_shards=2, learning_rate=0.05)
    return server


def make_faulty(plan):
    faulty = FaultyParameterServer(make_server(), plan)
    rng = np.random.default_rng(0)
    faulty.register("entities", rng.normal(size=(8, 4)))
    return faulty


class TestFaultPlan:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(push_drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(rpc_error_prob=-0.1)
        with pytest.raises(ValueError):
            CrashEvent(epoch=-1, batch=0, shard=0)

    def test_describe_is_one_line(self):
        text = FaultPlan(push_drop_prob=0.25, crashes=(CrashEvent(0, 0, 1),)).describe()
        assert "drop=25%" in text and "crashes=1" in text and "\n" not in text


class TestFaultDeterminism:
    def run_sequence(self, plan):
        faulty = make_faulty(plan)
        outcomes = []
        for i in range(200):
            rows = np.array([i % 8])
            try:
                faulty.push("entities", rows, np.ones((1, 4)))
                outcomes.append("ok")
            except RPCError:
                outcomes.append("err")
        return outcomes, faulty.stats

    def test_same_seed_same_faults(self):
        plan = FaultPlan(seed=5, push_drop_prob=0.2, rpc_error_prob=0.1)
        out_a, stats_a = self.run_sequence(plan)
        out_b, stats_b = self.run_sequence(plan)
        assert out_a == out_b
        assert stats_a.pushes_dropped == stats_b.pushes_dropped
        assert stats_a.rpc_errors == stats_b.rpc_errors

    def test_different_seed_different_faults(self):
        # Drops are silent, so compare the applied updates instead.
        faulty_a = make_faulty(FaultPlan(seed=5, push_drop_prob=0.2))
        faulty_b = make_faulty(FaultPlan(seed=6, push_drop_prob=0.2))
        for i in range(100):
            rows = np.array([i % 8])
            faulty_a.push("entities", rows, np.ones((1, 4)))
            faulty_b.push("entities", rows, np.ones((1, 4)))
        assert faulty_a.stats.pushes_dropped != faulty_b.stats.pushes_dropped or (
            not np.allclose(
                faulty_a.snapshot("entities"), faulty_b.snapshot("entities")
            )
        )


class TestFaultEffects:
    def test_dropped_push_leaves_table_unchanged(self):
        faulty = make_faulty(FaultPlan(push_drop_prob=1.0))
        before = faulty.snapshot("entities")
        faulty.push("entities", np.array([1]), np.ones((1, 4)))
        assert np.allclose(before, faulty.snapshot("entities"))
        assert faulty.stats.pushes_dropped == 1

    def test_rpc_error_raises_and_counts(self):
        faulty = make_faulty(FaultPlan(rpc_error_prob=1.0))
        with pytest.raises(RPCError):
            faulty.pull("entities", np.array([0]))
        assert faulty.stats.rpc_errors == 1

    def test_crash_resets_shard_rows_only(self):
        faulty = make_faulty(FaultPlan())
        initial = faulty.snapshot("entities")
        for row in range(8):
            faulty.push("entities", np.array([row]), np.ones((1, 4)))
        trained = faulty.snapshot("entities")
        faulty.crash_shard(1)
        after = faulty.snapshot("entities")
        odd = np.arange(8) % 2 == 1
        assert np.allclose(after[odd], initial[odd])  # crashed shard reverts
        assert np.allclose(after[~odd], trained[~odd])  # others keep training
        state = faulty.state("entities")
        assert np.all(state["m"][odd] == 0.0)
        assert np.all(state["step"][odd] == 0)
        assert np.any(state["step"][~odd] > 0)

    def test_crash_shard_out_of_range(self):
        faulty = make_faulty(FaultPlan())
        with pytest.raises(ValueError):
            faulty.crash_shard(7)
