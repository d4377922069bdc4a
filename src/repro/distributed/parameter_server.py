"""Parameter-server training simulation.

The paper pre-trains PKGM on 50 parameter servers and 200 workers for
two epochs (88 GB of parameters).  This module reproduces that system
architecture single-process, faithfully enough to study its behaviour:

* :class:`ParameterServer` — row-sharded parameter storage with
  pull/push RPC semantics and server-side Adam state (the standard PS
  design: optimizers live with the shards);
* :class:`PKGMWorker` — runs the closed-form margin-gradient kernel
  (:mod:`repro.core.margin_kernel`, the one ``PKGMTrainer`` uses) on
  pulled rows (production PS pipelines hand-code gradients exactly
  like this; tests verify them against the autograd engine);
* :class:`DistributedPKGMTrainer` — round-robin scheduling of logical
  workers over edge-sampler batches with configurable gradient
  staleness, mirroring asynchronous PS training.

The simulation answers the reproduction-relevant question: does the
asynchronous sharded pipeline optimize the same objective to the same
quality as the reference single-process trainer?  (Bench:
``bench_ablation_distributed.py``.)
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from ..core import PKGM
from ..core.margin_kernel import MarginStep, check_finite_loss
from ..core.trainer import TABLES
from ..nn import LazyAdam, no_grad
from ..kg import EdgeSampler, TripleStore
from ..obs.metrics import MetricsRegistry, counter_view


class ParameterServer:
    """Row-sharded parameter storage with server-side Adam.

    Parameters are registered as named 2-D (or 3-D for transfer
    matrices) arrays; rows are assigned to shards by ``row % num_shards``.
    ``pull`` returns copies (network semantics); ``push`` applies Adam
    updates to the touched rows only, like sparse updates in TF's PS.
    """

    #: Legacy counter attributes, now views over the metrics registry.
    #: Reads and writes (tests zero them with ``server.pull_count = 0``)
    #: hit the same ``ps.pulls`` / ``ps.pushes`` instruments snapshots see.
    pull_count = counter_view("ps.pulls", help="Pull RPCs (one per shard touched)")
    push_count = counter_view("ps.pushes", help="Push RPCs (one per shard touched)")

    def __init__(
        self,
        num_shards: int,
        learning_rate: float = 1e-2,
        registry=None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if registry is None:
            registry = MetricsRegistry()
        self.metrics = registry
        self.num_shards = num_shards
        self.learning_rate = learning_rate
        self._tables: Dict[str, np.ndarray] = {}
        # Per table, the row-sparse Adam that owns its moments and steps.
        self._adam: Dict[str, LazyAdam] = {}
        self.pull_count = 0
        self.push_count = 0
        self._pull_rows_c = registry.counter(
            "ps.pull.rows", help="Parameter rows pulled"
        )
        self._push_rows_c = registry.counter(
            "ps.push.rows", help="Parameter rows pushed"
        )
        self._shard_pulls = [
            registry.counter(
                "ps.pull.shard_rpcs",
                help="Pull RPCs answered by a shard",
                labels={"shard": shard},
            )
            for shard in range(num_shards)
        ]
        self._shard_pushes = [
            registry.counter(
                "ps.push.shard_rpcs",
                help="Push RPCs applied by a shard",
                labels={"shard": shard},
            )
            for shard in range(num_shards)
        ]
        self._shard_rows = [
            registry.gauge(
                "ps.shard.rows",
                help="Parameter rows resident on a shard",
                labels={"shard": shard},
            )
            for shard in range(num_shards)
        ]

    def register(self, name: str, table: np.ndarray) -> None:
        """Install a parameter table (copied — the server owns it)."""
        if name in self._tables:
            raise KeyError(f"parameter {name!r} already registered")
        self._tables[name] = np.array(table, dtype=np.float64)
        self._adam[name] = LazyAdam(self._tables[name], self.learning_rate, name)
        for shard, rows in enumerate(self.shard_sizes(name)):
            self._shard_rows[shard].add(rows)

    def shard_of(self, row: int) -> int:
        """The shard a row lives on (round-robin by id)."""
        return row % self.num_shards

    def shard_sizes(self, name: str) -> List[int]:
        """Rows per shard for a table — the load-balance audit."""
        rows = len(self._tables[name])
        return [len(range(s, rows, self.num_shards)) for s in range(self.num_shards)]

    def pull(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Fetch rows (copy) — one logical RPC per distinct shard."""
        rows = np.asarray(rows, dtype=np.int64)
        shards = sorted(set(self.shard_of(int(r)) for r in np.unique(rows)))
        self.pull_count += len(shards)
        for shard in shards:
            self._shard_pulls[shard].inc()
        self._pull_rows_c.inc(len(rows))
        return self._tables[name][rows].copy()

    def push(self, name: str, rows: np.ndarray, gradients: np.ndarray) -> None:
        """Apply sparse Adam updates to the touched rows.

        Duplicate rows in one push are accumulated first, matching
        dense-gradient semantics; :class:`repro.nn.LazyAdam` then steps
        each distinct row once.
        """
        rows = np.asarray(rows, dtype=np.int64)
        gradients = np.asarray(gradients, dtype=np.float64)
        if len(rows) != len(gradients):
            raise ValueError("rows and gradients must align")
        unique, inverse = np.unique(rows, return_inverse=True)
        accumulated = np.zeros((len(unique), *gradients.shape[1:]))
        np.add.at(accumulated, inverse, gradients)

        shards = sorted(set(self.shard_of(int(r)) for r in unique))
        self.push_count += len(shards)
        for shard in shards:
            self._shard_pushes[shard].inc()
        self._push_rows_c.inc(len(unique))
        self._adam[name].update(unique, accumulated)

    def snapshot(self, name: str) -> np.ndarray:
        """Full copy of a table (checkpointing)."""
        return self._tables[name].copy()

    def table_names(self) -> List[str]:
        """Registered parameter tables, in registration order."""
        return list(self._tables)

    def state(self, name: str) -> Dict[str, np.ndarray]:
        """Full recoverable state of one table: values + Adam moments.

        Returns copies — the checkpoint layer owns them.
        """
        return self._adam[name].state()

    def load_state(self, name: str, state: Dict[str, np.ndarray]) -> None:
        """Restore a table's values and Adam moments (shape-checked)."""
        if name not in self._tables:
            raise KeyError(f"parameter {name!r} is not registered")
        self._adam[name].load_state(state)

    def renormalize_rows(self, name: str, max_norm: float = 1.0) -> None:
        """Project rows onto the L2 ball (TransE's entity constraint)."""
        if not max_norm > 0:
            raise ValueError(f"max_norm must be positive, got {max_norm}")
        table = self._tables[name]
        norms = np.linalg.norm(table.reshape(len(table), -1), axis=1)
        scale = np.minimum(1.0, max_norm / np.maximum(norms, 1e-12))
        table *= scale.reshape(-1, *([1] * (table.ndim - 1)))


@dataclass
class GradientPacket:
    """One worker's computed gradients, keyed by table name."""

    rows: Dict[str, np.ndarray]
    gradients: Dict[str, np.ndarray]
    loss: float


class PKGMWorker:
    """Pulls a batch's rows and differentiates Eq. 4 on them.

    The gradient is :class:`repro.core.margin_kernel.MarginStep`'s — one
    derivation for both trainers, verified against the autograd engine
    in the test suite.
    """

    ENTITY, RELATION, MATRIX = TABLES

    def __init__(
        self,
        server: ParameterServer,
        margin: float,
        retrier=None,
    ) -> None:
        if margin <= 0:
            raise ValueError("margin must be positive")
        self.server = server
        self.margin = margin
        # Optional repro.reliability.retry.Retrier wrapping the pull RPCs
        # (transient RPCErrors from an injected fault plan get retried).
        self.retrier = retrier

    def _pull(self, name: str, rows: np.ndarray) -> np.ndarray:
        if self.retrier is None:
            return self.server.pull(name, rows)
        return self.retrier.call(self.server.pull, name, rows)

    def compute(self, positives: np.ndarray, negatives: np.ndarray) -> GradientPacket:
        """Gradient packet for one batch: pull its rows, run the kernel.

        ``negatives`` is ``(B, 3)`` or ``(K, B, 3)``.  The packet lists
        every pulled row — zeros where no active pair touched it — so the
        server's per-row Adam step counts advance with the pulls.
        """
        positives = np.asarray(positives, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        if positives.ndim != 2 or negatives.shape[-2:] != positives.shape:
            raise ValueError("positives and negatives must align")
        triples = np.concatenate([positives, negatives.reshape(-1, 3)])
        e_unique = np.unique(triples[:, [0, 2]])
        r_unique = np.unique(triples[:, 1])

        # Ids become positions among the pulled rows.
        local = np.stack(
            [
                np.searchsorted(e_unique, triples[:, 0]),
                np.searchsorted(r_unique, triples[:, 1]),
                np.searchsorted(e_unique, triples[:, 2]),
            ],
            axis=1,
        )
        step = MarginStep(
            self._pull(self.ENTITY, e_unique),
            self._pull(self.RELATION, r_unique),
            self._pull(self.MATRIX, r_unique),
            local[: len(positives)],
            local[len(positives) :].reshape(negatives.shape),
            self.margin,
        )
        # Every pulled row is in the batch, so the kernel's rows are
        # 0..n-1 and its gradients already align with the pulled ids.
        grads = step.gradients()
        return GradientPacket(
            rows={
                self.ENTITY: e_unique,
                self.RELATION: r_unique,
                self.MATRIX: r_unique,
            },
            gradients={
                self.ENTITY: grads.entity_grads,
                self.RELATION: grads.relation_grads,
                self.MATRIX: grads.transfer_grads,
            },
            loss=step.loss,
        )


@dataclass(frozen=True)
class DistributedConfig:
    """PS-simulation knobs (paper: 50 servers, 200 workers, 2 epochs)."""

    num_shards: int = 4
    num_workers: int = 8
    staleness: int = 0
    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1 or self.num_workers < 1:
            raise ValueError("num_shards and num_workers must be >= 1")
        if self.staleness < 0:
            raise ValueError("staleness must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


class DistributedPKGMTrainer:
    """Runs PKGM pre-training through the parameter-server simulation.

    Workers take batches round-robin.  With ``staleness = s``, a
    worker's gradient packet is applied ``s`` batches after it was
    computed — the bounded-staleness model of asynchronous PS training.
    The trained tables can be exported back into a :class:`PKGM` model
    so all downstream service code works unchanged.

    Reliability wiring (all optional, :mod:`repro.reliability`):

    * ``faults`` — a ``FaultPlan``; the server is wrapped in a
      ``FaultyParameterServer`` injecting seeded push drops / transient
      RPC errors / shard crashes.  A crash whose epoch, batch or shard
      the job never reaches raises ``ValueError`` before any training;
    * ``retry`` — a ``RetryPolicy``; workers retry faulted pulls and
      the trainer retries faulted pushes (a push that exhausts its
      retries is abandoned and counted, like a worker timing out);
    * ``checkpoint_dir`` — crash-consistent epoch-boundary snapshots of
      every table plus its server-side Adam state and the sampler RNG
      state.  A scheduled shard crash restores the latest checkpoint
      and replays from that epoch; a new trainer pointed at the same
      directory resumes a killed run bit-exactly.
    """

    #: Reliability accounting, registry-backed with the legacy attribute
    #: names preserved as read/write views.
    abandoned_batches = counter_view(
        "dist.abandoned_batches", help="Batches lost to exhausted pulls"
    )
    abandoned_pushes = counter_view(
        "dist.abandoned_pushes", help="Pushes lost to exhausted retries"
    )
    recoveries = counter_view(
        "dist.recoveries", help="Checkpoint restores after shard crashes"
    )

    def __init__(
        self,
        model: PKGM,
        config: Optional[DistributedConfig] = None,
        faults=None,
        retry=None,
        checkpoint_dir=None,
        resume: bool = True,
        registry=None,
        tracer=None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else DistributedConfig()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self._epoch_loss_g = self.metrics.gauge(
            "dist.epoch_loss", help="Mean margin loss of the last epoch"
        )
        self._epochs_c = self.metrics.counter(
            "dist.epochs", help="Epochs completed (including replays)"
        )
        self.server = ParameterServer(
            num_shards=self.config.num_shards,
            learning_rate=self.config.learning_rate,
            registry=self.metrics,
        )
        self.fault_plan = faults
        if faults is not None:
            from ..reliability.faults import FaultyParameterServer

            for event in faults.crashes:
                if event.epoch >= self.config.epochs:
                    raise ValueError(
                        f"{event} can never fire: the job trains "
                        f"{self.config.epochs} epochs"
                    )
                if event.shard >= self.config.num_shards:
                    raise ValueError(
                        f"{event} can never fire: the server has "
                        f"{self.config.num_shards} shards"
                    )
            self.server = FaultyParameterServer(self.server, faults)
        self._retrier = None
        if retry is not None:
            from ..reliability.retry import Retrier

            self._retrier = Retrier(retry)
        self._manager = None
        if checkpoint_dir is not None:
            from ..reliability.checkpoint import CheckpointManager

            self._manager = CheckpointManager(checkpoint_dir)
        self.resume = resume
        self.abandoned_batches = 0
        self.abandoned_pushes = 0
        self.recoveries = 0
        self.server.register(
            PKGMWorker.ENTITY, model.triple_module.entity_embeddings.weight.data
        )
        self.server.register(
            PKGMWorker.RELATION, model.triple_module.relation_embeddings.weight.data
        )
        self.server.register(
            PKGMWorker.MATRIX, model.relation_module.transfer_matrices.data
        )
        self.workers = [
            PKGMWorker(self.server, margin=2.0, retrier=self._retrier)
            for _ in range(self.config.num_workers)
        ]

    @property
    def fault_stats(self):
        """Injected-fault accounting, or ``None`` without a plan."""
        return self.server.stats if self.fault_plan is not None else None

    @property
    def retry_stats(self):
        """Retry accounting, or ``None`` without a policy."""
        return self._retrier.stats if self._retrier is not None else None

    def train(self, store: TripleStore) -> List[float]:
        """Run the asynchronous loop; returns per-epoch mean losses."""
        from ..reliability.retry import RetryExhaustedError

        rng = np.random.default_rng(self.config.seed)
        sampler = EdgeSampler.with_uniform(
            store,
            batch_size=self.config.batch_size,
            num_entities=self.model.num_entities,
            num_relations=self.model.num_relations,
            rng=rng,
        )
        crashes = list(self.fault_plan.crashes) if self.fault_plan is not None else []
        for event in crashes:
            if event.batch >= sampler.num_batches():
                raise ValueError(
                    f"{event} can never fire: an epoch has "
                    f"{sampler.num_batches()} batches"
                )
        losses: List[float] = []
        epoch = 0
        if self._manager is not None:
            if self.resume and self._manager.latest() is not None:
                epoch, losses = self._restore(rng)
            else:
                # Fresh run: stale checkpoints from an earlier run must
                # not leak into crash recovery; then write the epoch-0
                # baseline so a first-epoch crash can recover.
                self._manager.clear()
                self._save_checkpoint(0, rng, losses)
        pending: Deque[GradientPacket] = deque()
        while epoch < self.config.epochs:
            epoch_loss, count = 0.0, 0
            recovered_mid_epoch = False
            span_cm = (
                self.tracer.span("dist.epoch", epoch=epoch)
                if self.tracer is not None
                else nullcontext()
            )
            with span_cm:
                for batch_index, batch in enumerate(sampler.epoch()):
                    if self.tracer is not None:
                        self.tracer.clock.advance(1.0)
                    event = self._pop_crash(crashes, epoch, batch_index)
                    if event is not None:
                        self.server.crash_shard(event.shard)
                        pending.clear()  # in-flight packets died with the shard
                        if self.tracer is not None:
                            self.tracer.event(f"crash shard={event.shard}")
                        if (
                            self._manager is not None
                            and self._manager.latest() is not None
                        ):
                            epoch, losses = self._restore(rng)
                            self.recoveries += 1
                            recovered_mid_epoch = True
                            if self.tracer is not None:
                                self.tracer.event(f"restored epoch={epoch}")
                            break
                        # No checkpoint: keep training on the damaged state.
                    worker = self.workers[batch_index % len(self.workers)]
                    try:
                        packet = worker.compute(batch.positives, batch.negatives)
                    except RetryExhaustedError:
                        # A pull that exhausted its retries: the batch is
                        # abandoned (a worker timeout).
                        self.abandoned_batches += 1
                        continue
                    check_finite_loss(packet.loss)
                    pending.append(packet)
                    epoch_loss += packet.loss
                    count += len(batch)
                    if len(pending) > self.config.staleness:
                        self._apply(pending.popleft())
            if recovered_mid_epoch:
                continue
            while pending:
                self._apply(pending.popleft())
            losses.append(epoch_loss / max(count, 1))
            self._epoch_loss_g.set(losses[-1])
            self._epochs_c.inc()
            epoch += 1
            if self._manager is not None:
                self._save_checkpoint(epoch, rng, losses)
        self.export_to_model()
        return losses

    @staticmethod
    def _pop_crash(crashes, epoch: int, batch_index: int):
        for event in crashes:
            if event.epoch == epoch and event.batch == batch_index:
                crashes.remove(event)
                return event
        return None

    def _apply(self, packet: GradientPacket) -> None:
        from ..reliability.retry import RetryExhaustedError

        for name in packet.rows:
            if self._retrier is None:
                self.server.push(name, packet.rows[name], packet.gradients[name])
            else:
                try:
                    self._retrier.call(
                        self.server.push,
                        name,
                        packet.rows[name],
                        packet.gradients[name],
                    )
                except RetryExhaustedError:
                    self.abandoned_pushes += 1
        self.server.renormalize_rows(PKGMWorker.ENTITY)

    # ------------------------------------------------------------------
    # Crash-consistent checkpointing
    # ------------------------------------------------------------------
    def _save_checkpoint(self, epoch: int, rng, losses: List[float]) -> None:
        from ..reliability.checkpoint import save_tables

        names = self.server.table_names()
        states = {name: self.server.state(name) for name in names}
        save_tables(self._manager, epoch, states, rng, losses)

    def _restore(self, rng):
        from ..reliability.checkpoint import load_tables

        return load_tables(
            self._manager, self.server.table_names(), self.server.load_state, rng
        )

    def export_to_model(self) -> PKGM:
        """Copy the trained tables back into the wrapped PKGM."""
        with no_grad():
            self.model.triple_module.entity_embeddings.weight.data = (
                self.server.snapshot(PKGMWorker.ENTITY)
            )
            self.model.triple_module.relation_embeddings.weight.data = (
                self.server.snapshot(PKGMWorker.RELATION)
            )
            self.model.relation_module.transfer_matrices.data = self.server.snapshot(
                PKGMWorker.MATRIX
            )
        return self.model
