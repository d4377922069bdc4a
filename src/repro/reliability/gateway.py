"""The overload-safe serving gateway: deadlines, hedging, drain/swap.

:class:`PKGMGateway` fronts PKGM-serving replicas (``PKGMServer``,
``PKGMServer.from_store``) or one worker-pool ``Supervisor`` the way a
production edge fronts a model service:

* every arrival passes the :class:`~repro.reliability.admission.AdmissionController`
  — token-bucket rate limit, AIMD concurrency limit, bounded priority
  queue — and a shed request is *answered* with the existing flagged
  ``degraded=True`` fallback payload, never an exception; a completion
  slower than :data:`LATENCY_TARGET` (or a deadline miss) is an
  overload signal to the AIMD limit;
* every admitted request carries an absolute virtual ``deadline_at``;
  an in-process call drawn past it is cancelled at it, and a pool
  request carries what is left of it as its ``budget``, so the pool and
  its workers cancel work that can no longer meet its deadline;
* a backend failure — :class:`RPCError`, an unknown id, a quarantined
  row — is answered with the same flagged payload (reason
  ``"rpc-error"`` / ``"unknown-id"`` / ``"quarantined"``): the gateway
  is the stack's one producer of degraded answers;
* slow in-process calls are **hedged**: after ``hedge_after`` virtual
  seconds the same request is duplicated to the next replica and the
  first answer wins, with cancellation accounting for the loser (the
  tail-latency technique from Dean & Barroso's "The Tail at Scale");
* a **graceful drain** lifecycle (``serving → draining → quiesced →
  serving`` after ``swap``) refreshes the model snapshot without
  dropping a single in-flight request.

Time is entirely virtual: the gateway is a deterministic discrete-event
simulation over the shared :class:`~repro.reliability.retry.StepClock`,
and each in-process replica's latency is a seeded :class:`LatencyModel`
draw (:data:`BASE_LATENCY`, :data:`TAIL_PROB`).
The load generator advances the clock between arrivals; the gateway
schedules starts and completions at exact virtual timestamps, so two
runs with the same seed produce byte-identical metrics.

Over a pool the gateway *submits*: every request admission starts goes
to ``Supervisor.submit`` at once, so the requests admitted together
reach the pool's coalescer together and are batched, and each answer
completes at the virtual instant it is harvested (``pump`` in
:meth:`PKGMGateway.step`, ``drain`` in :meth:`PKGMGateway.drain`).
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.service import ServiceVectors
from ..obs.metrics import MetricsRegistry, counter_view
from ..ops import OPS, RetrievalPayload
from ..store.errors import QuarantinedRowError
from .admission import AdmissionConfig, AdmissionController, AdmissionAction
from .retry import RPCError, StepClock

#: Gateway lifecycle states (the drain/refresh state machine).
SERVING, DRAINING, QUIESCED = "serving", "draining", "quiesced"

#: Smallest virtual service latency of a replica.
BASE_LATENCY = 0.004
#: Share of replica calls that straggle into the exponential tail.
TAIL_PROB = 0.03
#: A completion slower than this many virtual seconds is an overload
#: signal to the AIMD limiter.
LATENCY_TARGET = 0.1
#: A pool outcome → the reason its answer carries (``None``: ok); any
#: other outcome (``"failed"``, ``"error"``) answers ``"rpc-error"``.
_POOL_REASONS = {
    "ok": None, "unknown-id": "unknown-id", "quarantined": "quarantined",
    "deadline": "deadline",
}


class LatencyModel:
    """Seeded virtual-latency distribution for one replica.

    ``BASE_LATENCY + uniform(0, 0.004)`` for the body of the distribution,
    plus — with probability ``TAIL_PROB`` — an exponential tail of mean
    0.25 (the stragglers hedging exists to cut).  All draws
    come from one ``default_rng(seed)`` stream, so a replica's latency
    sequence is a pure function of its seed and call order.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def sample(self) -> float:
        """One virtual service latency draw."""
        latency = BASE_LATENCY + 0.004 * float(self._rng.random())
        if float(self._rng.random()) < TAIL_PROB:
            latency += float(self._rng.exponential(0.25))
        return latency


@dataclass
class BackendOutcome:
    """What one (possibly hedged) backend call produced."""

    vectors: Optional[ServiceVectors]
    latency: float
    # None | "rpc-error" | "unknown-id" | "quarantined" | "deadline"
    reason: Optional[str] = None
    hedged: bool = False
    hedge_won: bool = False


class TimedBackend:
    """A serving replica: any server surface plus a virtual-latency model.

    ``call_timed`` reports how long the call took in virtual seconds
    *instead of* advancing any clock — the gateway owns the timeline.
    A ``budget`` caps the call: a draw past the remaining budget is
    reported as cancelled at the budget (reason ``"deadline"``) without
    touching the server.
    """

    def __init__(self, server, latency: Optional[LatencyModel] = None, name: str = "") -> None:
        self.server = server
        self.latency = latency if latency is not None else LatencyModel()
        self.name = name
        self.calls = 0
        self.cancelled = 0

    @property
    def k(self) -> int:
        return self.server.k

    @property
    def dim(self) -> int:
        return self.server.dim

    def call_timed(
        self,
        kind: str,
        entity_id: int,
        relation: int = -1,
        k: int = 0,
        budget: Optional[float] = None,
        target=None,
    ) -> Tuple[Optional[object], float, Optional[str]]:
        """``(payload, virtual_latency, reason)`` for one call of ``kind``.

        The one timing/cancellation envelope every kind shares: sample
        this replica's latency, cancel at the budget, else run the
        kind's :data:`~repro.ops.OPS` call on ``target`` (this
        replica's server unless given) and map its failures onto the
        serve path's vocabulary — :class:`RPCError` → ``"rpc-error"``,
        unknown ids → ``"unknown-id"``, a row on a page that failed its
        CRC (:class:`QuarantinedRowError`) → ``"quarantined"``.
        """
        self.calls += 1
        latency = self.latency.sample()
        if budget is not None and latency >= budget:
            self.cancelled += 1
            return None, budget, "deadline"
        backend = self.server if target is None else target
        try:
            payload = OPS[kind].call(backend, entity_id, relation, k)
        except RPCError:
            return None, latency, "rpc-error"
        except (KeyError, IndexError):
            return None, latency, "unknown-id"
        except QuarantinedRowError:
            return None, latency, "quarantined"
        return payload, latency, None


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs for one :class:`PKGMGateway`."""

    deadline_budget: float = 0.25
    hedge_after: Optional[float] = 0.05
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    def __post_init__(self) -> None:
        if self.deadline_budget <= 0:
            raise ValueError("deadline_budget must be positive")
        if self.hedge_after is not None and self.hedge_after <= 0:
            raise ValueError("hedge_after must be positive (or None to disable)")


@dataclass(frozen=True)
class GatewayRequest:
    """One admitted request and its timing envelope.

    ``kind`` names the request's row of :data:`repro.ops.OPS`;
    ``relation``/``k`` are the query fields that kind reads.
    """

    request_id: int
    entity_id: int
    priority: int
    arrival: float
    deadline_at: float
    kind: str = "serve"
    relation: int = -1
    k: int = 0


@dataclass(frozen=True)
class GatewayResponse:
    """The answer for one request — exactly one per submitted request.

    ``vectors`` is the kind's typed payload (:class:`ServiceVectors`
    for ``"serve"``, :class:`RetrievalPayload` for ``"retrieve"``, …);
    every one exposes ``degraded``, which is all :attr:`ok` needs.
    """

    request_id: int
    entity_id: int
    vectors: "ServiceVectors | RetrievalPayload"
    reason: Optional[str]  # None (ok) or why the answer is degraded
    latency: float  # virtual queue wait + service time
    completed_at: float
    hedged: bool = False
    hedge_won: bool = False

    @property
    def ok(self) -> bool:
        """Whether this is a real (non-degraded) model answer."""
        return not self.vectors.degraded


class GatewayStats:
    """End-to-end accounting for one gateway.

    Counters are registry-backed (``gateway.*``) with the original
    attribute names kept as read/write views, so the gateway's
    increments and registry snapshots observe the same instruments.
    """

    arrived = counter_view("gateway.arrived", help="Requests submitted")
    completed_ok = counter_view("gateway.completed_ok", help="Real answers")
    completed_degraded = counter_view(
        "gateway.completed_degraded", help="Degraded answers"
    )
    shed_rate_limited = counter_view(
        "gateway.shed_rate_limited", help="Token-bucket sheds"
    )
    shed_queue_full = counter_view(
        "gateway.shed_queue_full", help="Queue-overflow sheds"
    )
    shed_evicted = counter_view("gateway.shed_evicted", help="Queue evictions")
    shed_draining = counter_view(
        "gateway.shed_draining", help="Sheds while draining"
    )
    deadline_queue_misses = counter_view(
        "gateway.deadline_queue_misses", help="Deadlines blown in queue"
    )
    deadline_rejected = counter_view(
        "gateway.deadline_rejected",
        help="Arrivals with an already-expired budget, refused pre-dispatch",
    )
    deadline_backend_misses = counter_view(
        "gateway.deadline_backend_misses", help="Deadlines blown in backend"
    )
    backend_errors = counter_view("gateway.backend_errors", help="Backend failures")
    hedges_sent = counter_view("gateway.hedges_sent", help="Hedge requests fired")
    hedge_wins = counter_view("gateway.hedge_wins", help="Hedges that won")
    hedge_cancelled = counter_view(
        "gateway.hedge_cancelled", help="Hedge losers cancelled"
    )
    drains = counter_view("gateway.drains", help="Drain cycles")
    swaps = counter_view("gateway.swaps", help="Snapshot swaps")
    retrievals = counter_view(
        "gateway.retrievals", help="Nearest-tail retrieval requests"
    )
    explanations = counter_view(
        "gateway.explanations", help="Explanation requests"
    )
    recommendations = counter_view(
        "gateway.recommendations", help="Recommendation requests"
    )

    #: Every registry-backed counter attribute above, in declaration
    #: order — derived, so a new counter cannot be missed by ``__init__``.
    COUNTER_FIELDS = counter_view.fields(locals())

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        for name in self.COUNTER_FIELDS:
            setattr(self, name, 0)  # creates + zeroes the instrument

    @property
    def shed(self) -> int:
        """Requests refused by admission or the drain lifecycle."""
        return (
            self.shed_rate_limited
            + self.shed_queue_full
            + self.shed_evicted
            + self.shed_draining
        )

    @property
    def goodput(self) -> float:
        """Fraction of arrivals answered with real model output."""
        return self.completed_ok / self.arrived if self.arrived else 0.0

    @property
    def hedge_win_rate(self) -> float:
        return self.hedge_wins / self.hedges_sent if self.hedges_sent else 0.0

    def as_row(self) -> str:
        return (
            f"gateway: arrived {self.arrived} | ok {self.completed_ok} | "
            f"degraded {self.completed_degraded} | shed {self.shed} | "
            f"deadline-misses "
            f"{self.deadline_queue_misses + self.deadline_backend_misses} | "
            f"hedges {self.hedges_sent} (wins {self.hedge_wins}) | "
            f"goodput {self.goodput:.2%}"
        )


@dataclass(order=True)
class _Completion:
    """A scheduled in-flight completion (ordered by virtual time)."""

    at: float
    seq: int
    response: GatewayResponse = field(compare=False)
    overloaded: bool = field(compare=False, default=False)


class PKGMGateway:
    """Overload-safe front door for a set of serving replicas.

    Usage is a three-call protocol driven by the load generator, which
    owns the clock::

        gateway.submit(entity_id, priority)   # at clock.now(); may shed
        gateway.step()                        # completions up to now
        gateway.drain(); gateway.swap(new)    # refresh lifecycle

    ``submit`` returns a degraded :class:`GatewayResponse` immediately
    when the request is shed, or ``None`` when it was started/queued —
    its response then appears in a later ``step()`` (or ``drain()``)
    batch.  Every submitted request is answered exactly once, and no
    path raises.

    Each of ``replicas`` that is not already a :class:`TimedBackend`
    becomes one, named ``replica-<i>``, with latency seed ``seed + i``:
    replicas straggle at different times, which is what makes hedging
    win.  The same server may back every replica (``[server] * 2``).

    A :class:`~repro.serving.Supervisor` must be the only replica: the
    gateway then runs on the pool's clock, submits each started request
    to the pool and answers what the pool answers, for every kind with
    an ``unpack``; every pool answer is then the gateway's to read.  It
    takes no ``scenarios=`` and cannot ``swap``.
    """

    def __init__(
        self,
        replicas: Sequence,
        config: Optional[GatewayConfig] = None,
        clock: Optional[StepClock] = None,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        scenarios=None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        self.pool = _pool_of(replicas, clock, scenarios)
        if self.pool is not None:
            clock, replicas = self.pool.clock, []
        # Optional ScenarioService backend for the "explain"/"recommend"
        # request kinds; without it those submissions are a config error.
        self.scenarios = scenarios
        self.config = config if config is not None else GatewayConfig()
        self.clock = clock if clock is not None else StepClock()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.replicas: List[TimedBackend] = [
            replica
            if isinstance(replica, TimedBackend)
            else TimedBackend(
                replica,
                latency=LatencyModel(seed=seed + index),
                name=f"replica-{index}",
            )
            for index, replica in enumerate(replicas)
        ]
        # pool request id → (the gateway request, when it was submitted)
        self._tickets: Dict[int, Tuple[GatewayRequest, float]] = {}
        self.admission: AdmissionController[GatewayRequest] = AdmissionController(
            self.config.admission, clock=self.clock, registry=self.metrics
        )
        self.state = SERVING
        self.stats = GatewayStats(registry=self.metrics)
        self._latency_h = self.metrics.histogram(
            "gateway.latency",
            help="End-to-end virtual latency of completed requests",
        )
        self._inflight: List[_Completion] = []
        self._done: List[GatewayResponse] = []
        self._next_id = 0
        self._seq = 0
        self._rr = 0  # round-robin primary-replica cursor
        # Serializes the public surface so genuinely concurrent clients
        # (threads submitting while another drains) see a consistent
        # state machine: a submit observes either pre-drain SERVING or
        # post-drain QUIESCED, never a half-drained middle.  Reentrant
        # because drain/step call back into the shared internals.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Surface
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return (self.pool or self.replicas[0]).k

    @property
    def dim(self) -> int:
        return (self.pool or self.replicas[0]).dim

    def inflight_count(self) -> int:
        """Requests started but not yet completed (at the current time)."""
        with self._lock:
            return len(self._inflight) + len(self._tickets)

    def queued_count(self) -> int:
        with self._lock:
            return len(self.admission.queue)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(
        self, entity_id: int, priority: int = 0
    ) -> Optional[GatewayResponse]:
        """Offer one request at the current virtual time.

        Returns the (degraded) response right away when the request is
        shed; otherwise ``None`` — the answer will be emitted by a
        later :meth:`step` / :meth:`drain`.
        """
        return self._submit("serve", entity_id, priority=priority)

    def submit_retrieval(
        self,
        entity_id: int,
        relation: int,
        k: int = 10,
        priority: int = 0,
        budget: Optional[float] = None,
    ) -> Optional[GatewayResponse]:
        """Offer one nearest-tails query at the current virtual time.

        Identical admission, deadline, and drain treatment as
        :meth:`submit` — a shed or expired retrieval is answered with a
        degraded :class:`RetrievalPayload` (``(inf, -1)`` neighbors),
        never an exception.

        ``budget`` overrides the configured deadline budget for this
        request (a caller propagating an upstream deadline).  A budget
        that is already spent (``<= 0``) is rejected *here*, before
        admission and before any replica is touched — the degraded
        ``"deadline"`` answer is returned immediately and counted under
        ``deadline_rejected``.
        """
        return self._submit("retrieve", entity_id, relation, k, priority, budget)

    def submit_explanation(
        self,
        entity_id: int,
        relation: int,
        priority: int = 0,
        budget: Optional[float] = None,
    ) -> Optional[GatewayResponse]:
        """Offer one explanation query at the current virtual time.

        Same admission, deadline, and degraded-path treatment as
        :meth:`submit_retrieval`: shed or expired requests are answered
        with a degraded :class:`~repro.scenarios.ExplanationPayload`
        (empty predictions, ``degraded=True``), never an exception.
        Requires a scenario backend.
        """
        return self._submit(
            "explain", entity_id, relation=relation, priority=priority, budget=budget
        )

    def submit_recommendation(
        self,
        entity_id: int,
        k: int = 10,
        priority: int = 0,
        budget: Optional[float] = None,
    ) -> Optional[GatewayResponse]:
        """Offer one zero-shot recommendation query.

        The scenario backend ranks items by condensed service-vector
        distance, so a cold-start item is as answerable as a warm one.
        Degraded answers carry the ``(inf, -1)`` padded
        :class:`~repro.scenarios.RecommendationPayload`.  Requires a
        scenario backend.
        """
        return self._submit(
            "recommend", entity_id, k=k, priority=priority, budget=budget
        )

    def _submit(
        self,
        kind: str,
        entity_id: int,
        relation: int = -1,
        k: int = 0,
        priority: int = 0,
        budget: Optional[float] = None,
    ) -> Optional[GatewayResponse]:
        """The one submit path behind every public endpoint."""
        spec = OPS[kind]
        if spec.degraded is None or (self.pool is not None and spec.unpack is None):
            raise ValueError(f"this gateway has no endpoint for {kind!r} requests")
        with self._lock:
            if spec.scenario and self.scenarios is None:
                raise ValueError(
                    "this gateway has no scenario backend; construct it with "
                    "scenarios=ScenarioService(...)"
                )
            now = self.clock.now()
            self._advance(now)
            self.stats.arrived += 1
            if spec.counter is not None:
                self.metrics.counter(f"gateway.{spec.counter}").inc()
            effective = (
                self.config.deadline_budget if budget is None else float(budget)
            )
            request = GatewayRequest(
                request_id=self._next_id,
                entity_id=int(entity_id),
                priority=int(priority),
                arrival=now,
                deadline_at=now + effective,
                kind=kind,
                relation=int(relation),
                k=int(k),
            )
            self._next_id += 1
            if effective <= 0:
                self.stats.deadline_rejected += 1
                return self._degraded_response(request, "deadline", now)
            if self.state != SERVING:
                self.stats.shed_draining += 1
                return self._degraded_response(request, "draining", now)
            decision = self.admission.offer(request, priority=request.priority)
            if decision.action is AdmissionAction.SHED_RATE:
                self.stats.shed_rate_limited += 1
                return self._degraded_response(request, "rate-limited", now)
            if decision.action is AdmissionAction.SHED_QUEUE_FULL:
                self.stats.shed_queue_full += 1
                return self._degraded_response(request, "queue-full", now)
            if decision.evicted is not None:
                self.stats.shed_evicted += 1
                self._done.append(
                    self._degraded_response(decision.evicted, "evicted", now)
                )
            if decision.action is AdmissionAction.START:
                self._start(request, now)
            return None

    def step(self) -> List[GatewayResponse]:
        """Emit every response completed up to the current virtual time;
        over a pool, the answers it has so far — it never blocks."""
        with self._lock:
            self._advance(self.clock.now())
            done, self._done = self._done, []
            return done

    # ------------------------------------------------------------------
    # Drain / swap lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> List[GatewayResponse]:
        """``serving → draining → quiesced``: answer all in-flight work.

        New submissions are shed (flagged ``"draining"``) while every
        started or queued request runs to completion; the clock is
        advanced to each scheduled completion, and the pool drained of
        what it owes, so nothing is dropped.  Returns the responses
        emitted during the drain.
        """
        with self._lock:
            self.state = DRAINING
            self.stats.drains += 1
            while self._inflight or len(self.admission.queue) or self._tickets:
                if not self._inflight:
                    if self._tickets:
                        self._harvest(self.pool.drain(), self.clock.now())
                    else:
                        self._fill_slots(self.clock.now())
                    continue
                next_at = self._inflight[0].at
                if next_at > self.clock.now():
                    self.clock.advance(next_at - self.clock.now())
                self._advance(self.clock.now())
            self.state = QUIESCED
            done, self._done = self._done, []
            return done

    def swap(self, server) -> None:
        """``quiesced → serving``: install a refreshed snapshot.

        Requires a completed :meth:`drain` first — swapping under live
        traffic would hand in-flight requests a changing model.  A
        gateway over a pool has nothing to swap.
        """
        if self.pool is not None:
            raise ValueError("a gateway over a worker pool cannot swap its snapshot")
        with self._lock:
            if self.state != QUIESCED:
                raise RuntimeError(
                    f"swap requires the quiesced state (currently {self.state!r}); "
                    "call drain() first"
                )
            for replica in self.replicas:
                replica.server = server
            self.stats.swaps += 1
            self.state = SERVING

    # ------------------------------------------------------------------
    # Internals: the discrete-event engine
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Retire completions up to ``now``; start queued work as slots free."""
        if self.pool is not None:
            self.pool.pump()
            self._harvest(self.pool.responses(), now)
        while self._inflight and self._inflight[0].at <= now:
            completion = heapq.heappop(self._inflight)
            self._done.append(completion.response)
            self._latency_h.observe(completion.response.latency)
            if completion.response.ok:
                self.stats.completed_ok += 1
            else:
                self.stats.completed_degraded += 1
            self.admission.release(overloaded=completion.overloaded)
            # The slot freed at completion.at: queued work starts then,
            # not at `now` — keeping the timeline causally consistent.
            self._fill_slots(completion.at)
        self._fill_slots(now)

    def _fill_slots(self, at: float) -> None:
        while True:
            request = self.admission.next_ready()
            if request is None:
                return
            self._start(request, at)

    def _start(self, request: GatewayRequest, at: float) -> None:
        """Start one admitted request: submit it to the pool, or run its
        in-process call and schedule its completion on the timeline."""
        if at >= request.deadline_at:
            # Expired while waiting in the queue: answer immediately
            # with the flagged fallback; the wasted wait is an overload
            # signal for the AIMD limiter.
            self.stats.deadline_queue_misses += 1
            response = self._degraded_response(request, "deadline", at)
            self._schedule(at, response, overloaded=True)
            return
        budget = request.deadline_at - at
        if self.pool is not None:
            query = (request.kind, request.entity_id, request.relation, request.k)
            self._tickets[self.pool.submit(*query, budget=budget)] = (request, at)
            return
        outcome = self._run_hedged(request, budget=budget)
        late = outcome.reason == "deadline"
        self._complete(
            request,
            outcome.vectors,
            outcome.reason,
            request.deadline_at if late else at + outcome.latency,
            outcome.latency,
            hedged=outcome.hedged,
            hedge_won=outcome.hedge_won,
        )

    def _harvest(self, responses, now: float) -> None:
        """Complete, at ``now``, each pool answer to a submitted request."""
        for answer in responses:
            request, started = self._tickets.pop(answer.request_id)
            reason = _POOL_REASONS.get(answer.outcome, "rpc-error")
            vectors = (
                OPS[request.kind].unpack(request, answer.payload)
                if reason is None
                else None
            )
            self._complete(request, vectors, reason, now, now - started)

    def _complete(
        self,
        request: GatewayRequest,
        vectors,
        reason: Optional[str],
        at: float,
        service: float,
        hedged: bool = False,
        hedge_won: bool = False,
    ) -> None:
        """Schedule one backend answer at ``at``: a real one, a deadline
        missed in the backend (an overload signal), or a backend error.
        ``service`` is the backend's own time, judged against
        :data:`LATENCY_TARGET`."""
        if reason is None:
            response = GatewayResponse(
                request_id=request.request_id,
                entity_id=request.entity_id,
                vectors=vectors,
                reason=None,
                latency=at - request.arrival,
                completed_at=at,
                hedged=hedged,
                hedge_won=hedge_won,
            )
            self._schedule(at, response, overloaded=service > LATENCY_TARGET)
            return
        if reason == "deadline":
            self.stats.deadline_backend_misses += 1
        else:
            self.stats.backend_errors += 1
        response = self._degraded_response(
            request, reason, at, hedged=hedged, hedge_won=hedge_won
        )
        self._schedule(at, response, overloaded=reason == "deadline")

    def _schedule(
        self, at: float, response: GatewayResponse, overloaded: bool
    ) -> None:
        heapq.heappush(
            self._inflight,
            _Completion(at=at, seq=self._seq, response=response, overloaded=overloaded),
        )
        self._seq += 1

    def _run_hedged(self, request: GatewayRequest, budget: float) -> BackendOutcome:
        """One call on the round-robin primary, hedged if its kind is:
        the first answer wins and the loser is cancelled.

        Scenario kinds run on the shared scenario backend but take
        their timing from the primary's latency model (the scenario
        engines run beside the replicas and see the same tail), so
        every degraded-path invariant downstream applies unchanged.
        """
        if budget <= 0:
            # Defense in depth: _submit rejects spent budgets before
            # admission, so a non-positive budget here means a
            # scheduling bug — still never dispatch it.
            return BackendOutcome(None, 0.0, "deadline")
        primary = self.replicas[self._rr % len(self.replicas)]
        self._rr += 1
        target = self.scenarios if OPS[request.kind].scenario else None
        query = (request.kind, request.entity_id, request.relation, request.k)
        vectors, latency, reason = primary.call_timed(*query, budget, target)
        hedge_after = self.config.hedge_after
        if (
            not OPS[request.kind].hedged
            or hedge_after is None
            or len(self.replicas) < 2
            # Domain errors: every replica reads the same bytes, so a
            # hedge cannot help.
            or reason in ("unknown-id", "quarantined")
            or (reason is None and latency <= hedge_after)
        ):
            return BackendOutcome(vectors, latency, reason)
        # The primary is slow (or failed): fire the hedge at the moment
        # we would have noticed — hedge_after, or the failure time if
        # the error surfaced sooner.
        fire_at = min(hedge_after, latency)
        hedge_budget = budget - fire_at
        if hedge_budget <= 0:
            return BackendOutcome(vectors, latency, reason)
        secondary = self.replicas[self._rr % len(self.replicas)]
        self.stats.hedges_sent += 1
        h_vectors, h_latency, h_reason = secondary.call_timed(
            *query, hedge_budget, target
        )
        hedge_total = fire_at + h_latency
        primary_usable = reason is None
        hedge_usable = h_reason is None
        hedge_wins = (hedge_usable and not primary_usable) or (
            hedge_usable and primary_usable and hedge_total < latency
        )
        self.stats.hedge_cancelled += 1  # exactly one loser per hedge pair
        if hedge_wins:
            self.stats.hedge_wins += 1
            return BackendOutcome(
                h_vectors, hedge_total, None, hedged=True, hedge_won=True
            )
        if primary_usable:
            return BackendOutcome(vectors, latency, None, hedged=True)
        # Both failed: report whichever concluded first, preferring a
        # definitive backend error over a deadline cancellation.
        if reason == "deadline" and h_reason == "deadline":
            return BackendOutcome(None, budget, "deadline", hedged=True)
        first_reason = reason if reason != "deadline" else h_reason
        return BackendOutcome(
            None, min(latency, hedge_total), first_reason, hedged=True
        )

    # ------------------------------------------------------------------
    # Degraded answers
    # ------------------------------------------------------------------
    def _degraded_response(
        self,
        request: GatewayRequest,
        reason: str,
        completed_at: float,
        hedged: bool = False,
        hedge_won: bool = False,
    ) -> GatewayResponse:
        """The kind's typed ``degraded=True`` answer, flagged with why."""
        return GatewayResponse(
            request_id=request.request_id,
            entity_id=request.entity_id,
            vectors=OPS[request.kind].degraded(request, self),
            reason=reason,
            latency=max(0.0, completed_at - request.arrival),
            completed_at=completed_at,
            hedged=hedged,
            hedge_won=hedge_won,
        )


def _pool_of(replicas: Sequence, clock: Optional[StepClock], scenarios):
    """The worker pool ``replicas`` name, or ``None`` for in-process ones."""
    from ..serving.supervisor import Supervisor  # serving builds on this package

    if not any(isinstance(replica, Supervisor) for replica in replicas):
        return None
    if len(replicas) > 1:
        raise ValueError("a worker pool must be the gateway's only replica")
    (pool,) = replicas
    if clock is not None and clock is not pool.clock:
        raise ValueError("a gateway over a worker pool runs on the pool's clock")
    if scenarios is not None:
        raise ValueError("a gateway over a worker pool takes no scenarios= backend")
    return pool
