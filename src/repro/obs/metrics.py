"""Deterministic process-local metrics: counters, gauges, histograms.

The paper's serving tier (50 parameter servers, 200 workers, billions
of service-vector requests) is operable only through telemetry, and a
reproduction whose acceptance criterion is *byte-identical reruns*
needs that telemetry to be as deterministic as the computation it
measures.  This module is the measurement substrate used across
training and serving:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — exact,
  unsampled instruments (a histogram has fixed, explicit buckets and
  counts every observation);
* :class:`MetricsRegistry` — a process-local instrument table with
  dotted names, optional labels
  (``ps.pull.shard_rpcs{shard="3"}``), and prefix-scoped child
  registries sharing one store;
* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.diff` —
  plain sorted dicts, so two runs with the same seed produce
  byte-identical snapshots (and exports, see
  :mod:`repro.obs.export`);
* :class:`counter_view` — a descriptor that exposes a registry counter
  as a plain attribute, letting the legacy ad-hoc stats surfaces
  (``stats.requests += 1``, ``server.pull_count``) stay source- and
  semantics-compatible while the truth moves into the registry.

Nothing here reads the wall clock (lint rule R007 bans it in this
package) and nothing allocates on the hot path beyond the first lookup:
instruments are created once and cached by the calling layer.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Metric names: dotted lowercase identifiers (``gateway.hedge_wins``).
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")

#: Default histogram bucket bounds (virtual seconds), Prometheus-style.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


def _format_value(value: Number) -> str:
    """Deterministic text form: ints stay ints, floats use ``repr``."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _label_suffix(labels: Optional[Mapping[str, object]]) -> str:
    """Canonical ``{k="v",...}`` rendering with sorted keys ('' if none)."""
    if not labels:
        return ""
    parts = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + parts + "}"


class Counter:
    """A monotone-by-convention exact counter.

    ``set_total`` exists for the legacy attribute views
    (:class:`counter_view`) and for :meth:`reset`; production code
    should only :meth:`inc`.
    """

    kind = "counter"

    def __init__(self, name: str, labels: str = "", help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._value: Number = 0

    @property
    def value(self) -> Number:
        """The current count."""
        return self._value

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def set_total(self, value: Number) -> None:
        """Overwrite the count (attribute views and stats resets only)."""
        self._value = value

    def reset(self) -> None:
        """Zero the counter."""
        self._value = 0

    def items(self) -> Iterator[Tuple[str, Number]]:
        """``(snapshot_key, value)`` pairs for this instrument."""
        yield self.name + self.labels, self._value


class Gauge:
    """A point-in-time value (occupancy, loss, limit)."""

    kind = "gauge"

    def __init__(self, name: str, labels: str = "", help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._value: Number = 0

    @property
    def value(self) -> Number:
        """The current gauge reading."""
        return self._value

    def set(self, value: Number) -> None:
        """Overwrite the gauge."""
        self._value = value

    def add(self, amount: Number) -> None:
        """Adjust the gauge by ``amount`` (either sign)."""
        self._value += amount

    def reset(self) -> None:
        """Zero the gauge."""
        self._value = 0

    def items(self) -> Iterator[Tuple[str, Number]]:
        """``(snapshot_key, value)`` pairs for this instrument."""
        yield self.name + self.labels, self._value


class Histogram:
    """Fixed-bucket exact histogram (no sampling, no decay).

    ``buckets`` are strictly increasing upper bounds; an implicit
    ``+Inf`` bucket catches the overflow.  Snapshots expose cumulative
    Prometheus-style ``_bucket{le=...}`` counts plus ``_count`` and
    ``_sum``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: str = "",
        help: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            nxt <= prev for prev, nxt in zip(bounds, bounds[1:])
        ):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets = bounds
        self._counts: List[int] = [0] * (len(bounds) + 1)
        self._sum: float = 0.0

    @property
    def count(self) -> int:
        """Total observations."""
        return sum(self._counts)

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def observe(self, value: float) -> None:
        """Record one observation in its bucket."""
        value = float(value)
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value

    def reset(self) -> None:
        """Zero every bucket and the running sum."""
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0

    def _le_labels(self, bound: str) -> str:
        inner = f'le="{bound}"'
        if self.labels:
            return self.labels[:-1] + "," + inner + "}"
        return "{" + inner + "}"

    def items(self) -> Iterator[Tuple[str, Number]]:
        """Cumulative bucket counts, then ``_count`` and ``_sum``."""
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            yield self.name + "_bucket" + self._le_labels(repr(bound)), running
        yield self.name + "_bucket" + self._le_labels("+Inf"), self.count
        yield self.name + "_count" + self.labels, self.count
        yield self.name + "_sum" + self.labels, self._sum


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A process-local instrument table with prefix-scoped children.

    All lookups are get-or-create: asking twice for the same
    ``(name, labels)`` returns the same instrument; asking for an
    existing name with a different instrument kind raises.  A child
    registry (:meth:`child`) shares the parent's store and prepends
    ``prefix + '.'`` to every name, so one root snapshot sees the whole
    process.
    """

    def __init__(
        self,
        prefix: str = "",
        _store: Optional[Dict[str, Instrument]] = None,
    ) -> None:
        self.prefix = prefix
        self._store: Dict[str, Instrument] = _store if _store is not None else {}

    # ------------------------------------------------------------------
    # Construction / lookup
    # ------------------------------------------------------------------
    def child(self, prefix: str) -> "MetricsRegistry":
        """A registry view prefixing every name, sharing this store."""
        if not _NAME_RE.match(prefix):
            raise ValueError(f"invalid registry prefix {prefix!r}")
        return MetricsRegistry(self.prefix + prefix + ".", self._store)

    def _full_name(self, name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        return self.prefix + name

    def _lookup(self, key: str, kind: str) -> Optional[Instrument]:
        instrument = self._store.get(key)
        if instrument is not None and instrument.kind != kind:
            raise TypeError(
                f"metric {key!r} is already registered as a "
                f"{instrument.kind}, not a {kind}"
            )
        return instrument

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, object]] = None,
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        full = self._full_name(name)
        key = full + _label_suffix(labels)
        instrument = self._lookup(key, "counter")
        if instrument is None:
            instrument = Counter(full, _label_suffix(labels), help)
            self._store[key] = instrument
        return instrument

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, object]] = None,
    ) -> Gauge:
        """Get or create a :class:`Gauge`."""
        full = self._full_name(name)
        key = full + _label_suffix(labels)
        instrument = self._lookup(key, "gauge")
        if instrument is None:
            instrument = Gauge(full, _label_suffix(labels), help)
            self._store[key] = instrument
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
        labels: Optional[Mapping[str, object]] = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram` with the given buckets."""
        full = self._full_name(name)
        key = full + _label_suffix(labels)
        instrument = self._lookup(key, "histogram")
        if instrument is None:
            instrument = Histogram(full, buckets, _label_suffix(labels), help)
            self._store[key] = instrument
        return instrument

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def instruments(self) -> List[Instrument]:
        """Every registered instrument, sorted by labeled name."""
        return [self._store[key] for key in sorted(self._store)]

    def snapshot(self) -> Dict[str, Number]:
        """A plain sorted dict of every exposed series.

        Counters and gauges contribute one key each; a histogram
        contributes its cumulative buckets, ``_count``, and ``_sum``.
        Two runs with the same seed produce byte-identical snapshots.
        """
        flat: Dict[str, Number] = {}
        for instrument in self._store.values():
            for key, value in instrument.items():
                flat[key] = value
        return {key: flat[key] for key in sorted(flat)}

    @staticmethod
    def diff(
        before: Mapping[str, Number], after: Mapping[str, Number]
    ) -> Dict[str, Number]:
        """Per-key delta between two snapshots (zero deltas dropped)."""
        delta: Dict[str, Number] = {}
        for key in sorted(set(before) | set(after)):
            change = after.get(key, 0) - before.get(key, 0)
            if change != 0:
                delta[key] = change
        return delta

    def reset(self) -> None:
        """Zero every instrument (the store keeps its keys)."""
        for instrument in self._store.values():
            instrument.reset()


class counter_view:
    """Descriptor exposing a registry :class:`Counter` as an attribute.

    The stats surfaces that predate the registry
    (``stats.requests += 1``, ``server.pull_count = 0``) keep their
    exact syntax and semantics::

        class Stats:
            requests = counter_view("serving.requests")

            def __init__(self, registry):
                self.metrics = registry
                self.requests = 0   # creates + zeroes the instrument

    Reads return the counter's numeric value; writes overwrite it, so
    the attribute and the instrument can never drift apart.  The host
    object must expose the registry as ``self.metrics``.
    """

    def __init__(self, metric: str, help: str = "") -> None:
        self.metric = metric
        self.help = help
        self._slot = "_counter_view_" + metric.replace(".", "_")

    @staticmethod
    def fields(namespace: Mapping[str, object]) -> Tuple[str, ...]:
        """The ``counter_view`` attribute names of a class namespace, in
        declaration order (``FIELDS = counter_view.fields(locals())``)."""
        return tuple(n for n, v in namespace.items() if isinstance(v, counter_view))

    def _instrument(self, obj) -> Counter:
        cached = obj.__dict__.get(self._slot)
        if cached is None:
            cached = obj.metrics.counter(self.metric, help=self.help)
            obj.__dict__[self._slot] = cached
        return cached

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self._instrument(obj).value

    def __set__(self, obj, value) -> None:
        self._instrument(obj).set_total(value)
