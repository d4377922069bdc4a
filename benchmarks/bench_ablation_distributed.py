"""Ablation — parameter-server training vs the single-process reference.

The paper trains on 50 parameter servers and 200 workers.  Our PS
simulation reproduces the architecture (sharded pull/push, server-side
Adam, bounded gradient staleness); this bench verifies that the
asynchronous pipeline reaches the same optimization quality as the
reference trainer and reports the RPC accounting.
"""

import numpy as np

from repro.core import PKGM, PKGMTrainer, TrainerConfig
from repro.distributed import DistributedConfig, DistributedPKGMTrainer

STALENESS_SWEEP = (0, 2, 8)


def test_ablation_distributed_training(benchmark, workbench, record_table):
    store = workbench.catalog.store
    n_ent = len(workbench.catalog.entities)
    n_rel = len(workbench.catalog.relations)
    results = {}

    def sweep():
        reference = PKGM(n_ent, n_rel, workbench.config.pkgm, rng=np.random.default_rng(0))
        ref_history = PKGMTrainer(
            reference,
            TrainerConfig(epochs=10, batch_size=256, learning_rate=0.02, seed=0),
        ).train(store)
        results["reference"] = (ref_history.epoch_losses[-1], None, None)
        for staleness in STALENESS_SWEEP:
            model = PKGM(n_ent, n_rel, workbench.config.pkgm, rng=np.random.default_rng(0))
            trainer = DistributedPKGMTrainer(
                model,
                DistributedConfig(
                    num_shards=8,
                    num_workers=16,
                    staleness=staleness,
                    epochs=10,
                    batch_size=256,
                    learning_rate=0.02,
                    seed=0,
                ),
            )
            losses = trainer.train(store)
            results[f"ps-staleness-{staleness}"] = (
                losses[-1],
                trainer.server.pull_count,
                trainer.server.push_count,
            )
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = ["Ablation: PS simulation — setup | final loss | pulls | pushes"]
    for name, (loss, pulls, pushes) in results.items():
        rpc = f"{pulls} | {pushes}" if pulls is not None else "- | -"
        lines.append(f"{name} | {loss:.4f} | {rpc}")
    record_table("ablation_distributed", lines)

    reference_loss = results["reference"][0]
    for staleness in STALENESS_SWEEP:
        ps_loss = results[f"ps-staleness-{staleness}"][0]
        # The async pipeline must land in the same loss regime.
        assert ps_loss < reference_loss * 2.5 + 0.1
