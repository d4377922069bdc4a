"""Ablation — convergence quality under injected parameter-server faults.

The paper's production setting (50 PS nodes, 200 workers) makes dropped
pushes, RPC timeouts, and node restarts routine rather than exceptional.
This bench sweeps fault plans of increasing severity over the same
workload and verifies the reliability stack's acceptance criterion: the
documented plan (>=10% dropped pushes, transient RPC errors retried with
backoff, plus one mid-epoch shard crash recovered from a crash-consistent
checkpoint) must land within 10% of the fault-free final loss.
"""

import numpy as np

from repro.core import PKGM
from repro.distributed import DistributedConfig, DistributedPKGMTrainer
from repro.reliability import CrashEvent, FaultPlan, RetryPolicy

FAULT_SEED = 0
DROP_SWEEP = (0.0, 0.05, 0.10, 0.20)


def _config(workbench):
    return DistributedConfig(
        num_shards=8,
        num_workers=16,
        epochs=10,
        batch_size=256,
        learning_rate=0.02,
        seed=FAULT_SEED,
    )


def _model(workbench):
    n_ent = len(workbench.catalog.entities)
    n_rel = len(workbench.catalog.relations)
    return PKGM(
        n_ent, n_rel, workbench.config.pkgm, rng=np.random.default_rng(FAULT_SEED)
    )


def test_ablation_fault_tolerance(benchmark, workbench, record_table, tmp_path):
    store = workbench.catalog.store
    results = {}

    def sweep():
        clean = DistributedPKGMTrainer(_model(workbench), _config(workbench))
        clean_losses = clean.train(store)
        results["fault-free"] = (clean_losses[-1], None, 0)

        for drop in DROP_SWEEP[1:]:
            plan = FaultPlan(
                seed=FAULT_SEED, push_drop_prob=drop, rpc_error_prob=0.02
            )
            trainer = DistributedPKGMTrainer(
                _model(workbench),
                _config(workbench),
                faults=plan,
                retry=RetryPolicy(seed=FAULT_SEED),
            )
            losses = trainer.train(store)
            results[f"drop-{drop:.0%}"] = (
                losses[-1],
                trainer.fault_stats,
                trainer.recoveries,
            )

        # The documented acceptance plan: 10% drops + RPC errors + one
        # shard crash mid-epoch, recovered from the latest checkpoint.
        plan = FaultPlan(
            seed=FAULT_SEED,
            push_drop_prob=0.10,
            rpc_error_prob=0.02,
            crashes=(CrashEvent(epoch=5, batch=2, shard=1),),
        )
        trainer = DistributedPKGMTrainer(
            _model(workbench),
            _config(workbench),
            faults=plan,
            retry=RetryPolicy(seed=FAULT_SEED),
            checkpoint_dir=tmp_path / "ckpt",
            resume=False,
        )
        losses = trainer.train(store)
        results["drop-10%+crash+resume"] = (
            losses[-1],
            trainer.fault_stats,
            trainer.recoveries,
        )
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    clean_loss = results["fault-free"][0]
    lines = [
        "Ablation: fault tolerance — plan | final loss | gap vs clean |"
        " dropped | rpc-errs | recoveries"
    ]
    for name, (loss, stats, recoveries) in results.items():
        gap = abs(loss - clean_loss) / abs(clean_loss)
        if stats is None:
            counts = "- | -"
        else:
            counts = f"{stats.pushes_dropped} | {stats.rpc_errors}"
        lines.append(
            f"{name} | {loss:.4f} | {gap:.2%} | {counts} | {recoveries}"
        )
    record_table("ablation_faults", lines)

    # Acceptance: every swept plan stays within 10% of fault-free, and
    # the crash plan actually exercised checkpoint recovery.
    for name, (loss, _, _) in results.items():
        gap = abs(loss - clean_loss) / abs(clean_loss)
        assert gap <= 0.10, f"{name}: final loss {loss:.4f} is {gap:.1%} off"
    assert results["drop-10%+crash+resume"][2] == 1
    assert results["drop-10%+crash+resume"][1].shard_crashes == 1
