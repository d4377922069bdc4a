"""PKGM pre-training loop (paper §III-A2).

The paper trained with TensorFlow + Graph-learn on 50 parameter servers
and 200 workers (88 GB of parameters, 15 h, 2 epochs, Adam lr 1e-4,
batch 1000, 1 negative per edge).  :class:`PKGMTrainer` reproduces the
same optimization — edge sampling, uniform negatives, margin loss,
Adam — as a single-process loop sized for the synthetic KG.  Like a
parameter server, a step moves only the rows its batch mentions: one
:class:`~repro.nn.LazyAdam` per table, the update the PS simulation
(:mod:`repro.distributed`) applies per push.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..kg import EdgeSampler, TripleStore
from ..nn import LazyAdam, sanitizer
from .margin_kernel import MarginGradients, MarginStep, check_finite_loss
from .pkgm import PKGM, PKGMConfig

#: Checkpoint names of the entity, relation and transfer tables, in
#: :class:`MarginStep`'s order.  Both trainers save every table ``name``
#: as ``name.table``, ``name.m``, ``name.v`` and ``name.step``.
TABLES = ("entities", "relations", "matrices")


@dataclass(frozen=True)
class TrainerConfig:
    """Optimization knobs for PKGM pre-training."""

    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 1e-2
    negatives_per_edge: int = 1
    corrupt_relation_prob: float = 0.1
    entity_max_norm: Optional[float] = 1.0
    numeric_guard: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.negatives_per_edge < 1:
            raise ValueError("negatives_per_edge must be >= 1")
        if self.entity_max_norm is not None and not self.entity_max_norm > 0:
            raise ValueError("entity_max_norm must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch mean margin loss, for convergence checks and plots."""

    epoch_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs recorded")
        return self.epoch_losses[-1]

    def improved(self) -> bool:
        """Whether loss decreased from the first to the last epoch."""
        return len(self.epoch_losses) >= 2 and (
            self.epoch_losses[-1] < self.epoch_losses[0]
        )


class PKGMTrainer:
    """Pre-trains a :class:`PKGM` on a triple store.

    ``optimizer`` maps each of :data:`TABLES` to the :class:`LazyAdam`
    that updates the model's array in place; a step writes the rows its
    batch mentions and projects only the entity rows it wrote back onto
    the ``entity_max_norm`` ball.  The first step of the optimizer state
    also projects the whole entity table, before its update, so every
    row is inside the ball after every step.

    With ``checkpoint_dir`` set, the trainer writes a crash-consistent
    snapshot (every table's :meth:`LazyAdam.state`, sampler RNG state, loss
    history — see :mod:`repro.reliability.checkpoint`) after every
    epoch, and a later trainer pointed at the
    same directory resumes the run *bit-exactly*: a killed 30-epoch job
    restarted from epoch 12 produces the same final tables as one that
    never died.
    """

    def __init__(
        self,
        model: PKGM,
        config: Optional[TrainerConfig] = None,
        checkpoint_dir=None,
        resume: bool = True,
        registry=None,
        tracer=None,
        profiler=None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else TrainerConfig()
        triple = model.triple_module
        tables = (
            triple.entity_embeddings.weight.data,
            triple.relation_embeddings.weight.data,
            model.relation_module.transfer_matrices.data,
        )
        self.optimizer = {
            name: LazyAdam(table, self.config.learning_rate, name)
            for name, table in zip(TABLES, tables)
        }
        self._manager = None
        if checkpoint_dir is not None:
            from ..reliability.checkpoint import CheckpointManager

            self._manager = CheckpointManager(checkpoint_dir)
        self.resume = resume
        # Observability wiring (repro.obs) — all optional, all no-ops
        # when absent.  The tracer and profiler share one virtual
        # timeline so span durations and phase steps line up.
        self.metrics = registry
        self.tracer = tracer
        self.profiler = profiler
        if profiler is not None and tracer is not None:
            profiler.clock = tracer.clock
        self._obs_clock = (
            tracer.clock
            if tracer is not None
            else profiler.clock if profiler is not None else None
        )
        self._loss_g = self._epochs_c = None
        self._batches_c = self._examples_c = self._violations_c = None
        if registry is not None:
            self._loss_g = registry.gauge(
                "train.epoch_loss", help="Mean margin loss of the last epoch"
            )
            self._epochs_c = registry.counter("train.epochs", help="Epochs run")
            self._batches_c = registry.counter("train.batches", help="Batches run")
            self._examples_c = registry.counter(
                "train.examples", help="Positive edges consumed"
            )
            self._violations_c = registry.counter(
                "train.violating_batches",
                help="Batches with at least one active margin violation",
            )

    @contextmanager
    def _phase(self, name: str, units: int = 0):
        """Profiler phase + one virtual step, when observability is on."""
        cm = (
            self.profiler.phase(name, units=units)
            if self.profiler is not None
            else nullcontext()
        )
        with cm:
            try:
                yield
            finally:
                if self._obs_clock is not None:
                    self._obs_clock.advance(1.0)

    def train(
        self,
        store: TripleStore,
        progress: Optional[Callable[[int, float], None]] = None,
    ) -> TrainingHistory:
        """Run the pre-training loop; returns the loss history.

        ``progress`` (epoch_index, mean_loss) is invoked after each
        epoch — handy for logging from examples and benches.

        The NaN/Inf sanitizer (:mod:`repro.nn.sanitizer`) is armed for
        the duration of the run when ``config.numeric_guard`` is set or
        the ``REPRO_NUMERIC_GUARD`` environment flag is exported.
        """
        profiler_cm = self.profiler if self.profiler is not None else nullcontext()
        with sanitizer.guard(
            self.config.numeric_guard or sanitizer.env_enabled()
        ), profiler_cm:
            return self._train(store, progress)

    def _train(
        self,
        store: TripleStore,
        progress: Optional[Callable[[int, float], None]] = None,
    ) -> TrainingHistory:
        rng = np.random.default_rng(self.config.seed)
        sampler = EdgeSampler.with_uniform(
            store,
            batch_size=self.config.batch_size,
            num_entities=self.model.num_entities,
            num_relations=self.model.num_relations,
            rng=rng,
            negatives_per_edge=self.config.negatives_per_edge,
            corrupt_relation_prob=self.config.corrupt_relation_prob,
        )
        history = TrainingHistory()
        start_epoch = 0
        if self._manager is not None:
            # reliability builds on core, so it is imported at use.
            from ..reliability.checkpoint import load_tables, save_tables

            if self.resume and self._manager.latest() is not None:
                start_epoch, losses = load_tables(
                    self._manager,
                    self.optimizer,
                    lambda name, state: self.optimizer[name].load_state(state),
                    rng,
                )
                history.epoch_losses.extend(losses)
            else:
                self._manager.clear()
        for epoch in range(start_epoch, self.config.epochs):
            epoch_loss = 0.0
            count = 0
            span_cm = (
                self.tracer.span("train.epoch", epoch=epoch)
                if self.tracer is not None
                else nullcontext()
            )
            with span_cm:
                batches = iter(sampler.epoch())
                while True:
                    with self._phase("negative_sampling"):
                        batch = next(batches, None)
                    if batch is None:
                        break
                    with self._phase("forward", units=len(batch)):
                        step = MarginStep(
                            *(adam.table for adam in self.optimizer.values()),
                            batch.positives,
                            batch.negatives,
                            self.model.config.margin,
                        )
                    loss = step.loss
                    check_finite_loss(loss)
                    with self._phase("backward"):
                        grads = step.gradients()
                    with self._phase("optimizer"):
                        self._update(grads)
                    epoch_loss += loss
                    count += len(batch)
                    if self._batches_c is not None:
                        self._batches_c.inc()
                        self._examples_c.inc(len(batch))
                        if loss > 0.0:
                            # The margin ranking loss is a sum of hinge
                            # terms: positive loss ⇔ at least one pair
                            # still violates the margin.
                            self._violations_c.inc()
            mean_loss = epoch_loss / max(count, 1)
            history.epoch_losses.append(mean_loss)
            if self._loss_g is not None:
                self._loss_g.set(mean_loss)
                self._epochs_c.inc()
            if progress is not None:
                progress(epoch, mean_loss)
            if self._manager is not None:
                save_tables(
                    self._manager,
                    epoch + 1,
                    {name: adam.state() for name, adam in self.optimizer.items()},
                    rng,
                    history.epoch_losses,
                )
        return history

    def _update(self, grads: MarginGradients) -> None:
        """Adam on the rows the batch mentions, then their projection."""
        entities, relations, matrices = self.optimizer.values()
        max_norm = self.config.entity_max_norm
        # Before the state's first update no relation row has a step (every
        # batch writes one): project the whole entity table, this once.
        if max_norm is not None and not relations.step.any():
            self.model.renormalize_entities(max_norm)
        entities.update(grads.entity_rows, grads.entity_grads)
        relations.update(grads.relation_rows, grads.relation_grads)
        matrices.update(grads.relation_rows, grads.transfer_grads)
        if max_norm is not None:
            self.model.triple_module.entity_embeddings.renormalize(
                max_norm, rows=grads.entity_rows
            )


def pretrain_pkgm(
    store: TripleStore,
    num_entities: int,
    num_relations: int,
    model_config: Optional[PKGMConfig] = None,
    trainer_config: Optional[TrainerConfig] = None,
    seed: int = 0,
) -> PKGM:
    """One-call pre-training: build a PKGM and fit it to ``store``."""
    model = PKGM(
        num_entities,
        num_relations,
        config=model_config,
        rng=np.random.default_rng(seed),
    )
    trainer = PKGMTrainer(model, trainer_config)
    trainer.train(store)
    return model
