"""Pre-training throughput: ``PKGMTrainer`` over seeded triple shards.

One persistent trainer (1 epoch per call, one 500-triple minibatch,
Adam 1e-2) is fed the next of the seeded, disjoint 500-triple shards
of the catalog's triples on every operation; an item is one positive
triple.  (A 1 000-triple step takes ~45 ms, which leaves a 12 s run
with too few latency samples for a 95th percentile.)  ``repro.core.trainer``, ``repro.nn`` and ``repro.kg.sampling``
do all the work and no serving layer runs.  Each step's Adam update and
entity renormalisation walk the whole entity table, which is what
dominates today.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core import PKGM, PKGMConfig, PKGMTrainer, TrainerConfig
from repro.kg import EdgeSampler, TripleStore
from repro.nn import Adam

from .. import oracle
from ..harness import Meter, RoundResult, StepTiming
from ..trace import Tracer
from .base import DIM, TracedRun, Workload
from .bulk import build_catalog

SHARD_TRIPLES = 500
OPS_PER_ROUND = 4  # ~110 ms
#: The entity table is digested after this many operations; every pass
#: of a run must arrive at the same bytes.
DIGEST_AFTER = 8
#: Calibrated calls of the direct drive, each OPS_PER_ROUND steps long.
DRIVE_CALLS = 3
PHASES = ("sampler", "forward", "backward", "optimizer", "renorm")


class TrainEpoch(Workload):
    name = "train_epoch"
    products_per_category = 120
    setup_repeats = 9  # one ~30 ms step
    warmup_rounds = 0  # the warm-up shard is part of set-up
    config = TrainerConfig(
        epochs=1, batch_size=SHARD_TRIPLES, learning_rate=1e-2
    )

    def generate(self) -> None:
        catalog = build_catalog(self.products_per_category)
        self.num_entities = len(catalog.entities)
        self.num_relations = len(catalog.relations)
        triples = catalog.store.to_array()
        order = self.rng(1).permutation(len(triples))
        self.shards = [
            TripleStore(map(tuple, triples[order[start : start + SHARD_TRIPLES]]))
            for start in range(0, len(order) - SHARD_TRIPLES + 1, SHARD_TRIPLES)
        ]
        # Set-up trains on a shard of its own, so every repeat of the
        # chain does the same work and the measured stream starts at 0.
        self.warmup_shard = self.shards.pop()
        self.trainer: Optional[PKGMTrainer] = None

    def _model(self) -> PKGM:
        return PKGM(
            self.num_entities,
            self.num_relations,
            PKGMConfig(dim=DIM),
            rng=self.rng(3),
        )

    # -- set-up ---------------------------------------------------------
    def setup(self, meter: Meter) -> Dict[str, StepTiming]:
        def build() -> PKGMTrainer:
            trainer = PKGMTrainer(self._model(), self.config)
            trainer.train(self.warmup_shard)
            return trainer

        timing, self.trainer = meter.time_call(build)
        self.ops_done = 0
        self.losses: List[float] = []
        self.digest = ""
        return {"build_trainer": timing}

    # -- rounds ---------------------------------------------------------
    def round(self, index: int, tracer: Optional[Tracer] = None) -> RoundResult:
        latencies: List[float] = []
        failed = 0
        for _ in range(OPS_PER_ROUND):
            shard = self.shards[self.ops_done % len(self.shards)]
            elapsed, history = self.timed(
                tracer, "op.train", lambda: self.trainer.train(shard)
            )
            latencies.append(elapsed)
            self.losses.append(history.final_loss)
            if not np.isfinite(history.final_loss):
                failed += 1
                self.fail("train_epoch: non-finite loss")
            self.ops_done += 1
            if self.ops_done == DIGEST_AFTER:
                self.digest = oracle.array_digest(self._entity_table())
        return RoundResult(
            busy=sum(latencies),
            latencies=latencies,
            items=len(latencies) * SHARD_TRIPLES,
            failed=failed,
        )

    def _entity_table(self) -> np.ndarray:
        return self.trainer.model.triple_module.entity_embeddings.weight.data

    def finish(self) -> Dict[str, float]:
        improved, reason = oracle.losses_improved(self.losses)
        if not improved:
            self.fail_pass(f"train_epoch: {reason}")
        # "same." facts must be equal in every pass of a run.
        return {f"same.entity_table_after_{DIGEST_AFTER}_ops": self.digest}

    # -- tracing --------------------------------------------------------
    def register_spans(self, tracer: Tracer) -> None:
        tracer.wrap(self.trainer, "train", "core.trainer.train")

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        """One step's public calls, driven directly on a replayed shard.

        A twin model and optimiser take the steps, so the measured
        trainer's tables are left as the rounds made them.
        """
        model = self._model()
        optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        shard = self.shards[0]
        rng = self.rng(4)
        sampler = EdgeSampler.with_uniform(
            shard,
            batch_size=self.config.batch_size,
            num_entities=self.num_entities,
            num_relations=self.num_relations,
            rng=rng,
            negatives_per_edge=self.config.negatives_per_edge,
            corrupt_relation_prob=self.config.corrupt_relation_prob,
        )
        clock = self.clock
        totals = dict.fromkeys(PHASES, 0.0)

        def step() -> Dict[str, float]:
            stamps = [clock()]
            batch = list(sampler.epoch())[0]
            stamps.append(clock())
            optimizer.zero_grad()
            loss = model.margin_loss(batch.positives, batch.negatives)
            stamps.append(clock())
            loss.backward()
            stamps.append(clock())
            optimizer.step()
            stamps.append(clock())
            model.renormalize_entities(self.config.entity_max_norm)
            stamps.append(clock())
            return dict(zip(PHASES, np.diff(stamps)))

        def steps() -> Dict[str, float]:
            spent = dict.fromkeys(PHASES, 0.0)
            for _ in range(OPS_PER_ROUND):
                for phase, seconds in step().items():
                    spent[phase] += seconds
            return spent

        # One calibrated call per round's worth of steps, phases stamped
        # inside it: a calibration between phases, or between steps,
        # would empty the caches they find warm inside a round.
        for _ in range(DRIVE_CALLS):
            timing, spent = run.meter.time_call(steps)
            factor = timing.norm / timing.raw
            for phase, seconds in spent.items():
                totals[phase] += seconds * factor
        per_step = {
            phase: total / (DRIVE_CALLS * OPS_PER_ROUND)
            for phase, total in totals.items()
        }
        triples = float(SHARD_TRIPLES)
        return {
            "core.trainer.sampler_us_per_triple": per_step["sampler"] / triples * 1e6,
            "core.trainer.forward_us_per_triple": per_step["forward"] / triples * 1e6,
            "core.trainer.backward_us_per_triple": per_step["backward"]
            / triples
            * 1e6,
            "core.trainer.optimizer_us_per_step": per_step["optimizer"] * 1e6,
            "core.trainer.renorm_us_per_step": per_step["renorm"] * 1e6,
            # One train(shard) call is one step here: what the call
            # costs beyond the five phases it is made of.
            "core.trainer.call_overhead_us": (
                run.per("core.trainer.train", "calls") - sum(per_step.values()) * 1e6
            ),
        }
