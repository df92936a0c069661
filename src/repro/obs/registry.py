"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The model follows the Prometheus client conventions, reduced to what the
serving stack needs and implemented on the standard library alone:

* a **family** is a named metric (``store_cache_hit_total``) of one type,
  registered once per process with a fixed set of *label names*
  (``("method", "mode")``);
* a **child** is one labelled time series inside a family, resolved with
  :meth:`_Family.labels` and cached, so hot paths pay one dict lookup at
  setup time and a plain guarded add per event;
* the **registry** owns the families; :func:`get_registry` returns the
  process-wide instance every instrumented module registers into.

Counters are monotonic (``inc`` rejects negative amounts), gauges move
freely, histograms use fixed upper bounds chosen at registration (bucket
``i`` counts observations ``<= bounds[i]``; everything above the last bound
lands in the implicit ``+Inf`` bucket).

Thread-safety guarantee
-----------------------
Each registry owns **one** :class:`threading.RLock`, shared by every
family and every child registered into it.  All mutation — counter
increments, gauge moves, histogram observations, ``clear_values`` — and
every read that must be internally consistent (a histogram's
bucket/sum/count triple) serialises on that single lock, so concurrent
walk-index build workers and serving workers can record into the same
families with no lost updates and snapshots never observe a half-applied
histogram observation.  The lock is reentrant, which lets higher layers
(e.g. :class:`~repro.core.montecarlo.EstimatorStats`) mirror several
series while holding their own guard.  One lock per registry is a
deliberate trade: uncontended acquisition costs the same as a per-child
lock (held to the ≤ 3% ceiling by ``benchmarks/bench_obs_overhead.py``),
and cross-series updates become atomic with respect to exports.

:func:`set_enabled` / :func:`disabled` pause *recording* globally —
instrumented call sites check :func:`is_enabled` before observing, which is
what lets ``benchmarks/bench_obs_overhead.py`` measure the instrumentation
itself.
"""

from __future__ import annotations

import bisect
import re
import threading
from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "get_registry",
    "snapshot_delta",
    "set_enabled",
    "is_enabled",
    "disabled",
]

#: Default histogram bounds for durations in seconds — spans five decades,
#: from batched-query microseconds to cold preprocessing builds.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_PATTERN = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_PATTERN = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

_enabled = True
_enabled_lock = threading.Lock()


def set_enabled(flag: bool) -> bool:
    """Globally enable/disable metric recording; returns the previous state."""
    global _enabled
    with _enabled_lock:
        previous = _enabled
        _enabled = bool(flag)
    return previous


def is_enabled() -> bool:
    """Return whether instrumented call sites should record right now."""
    return _enabled


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager that pauses metric/span recording inside its body."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def _validate_labels(
    labelnames: Sequence[str], labels: Mapping[str, object]
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match the declared label names "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _CounterChild:
    """One labelled counter series; monotonic."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock | None = None) -> None:
        self._lock = lock if lock is not None else threading.RLock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the series."""
        if amount < 0:
            raise ValueError(f"counters can only grow, got increment {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _GaugeChild:
    """One labelled gauge series; moves freely."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock | None = None) -> None:
        self._lock = lock if lock is not None else threading.RLock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class _HistogramChild:
    """One labelled histogram series over the family's fixed bounds."""

    __slots__ = ("_lock", "_bounds", "_bucket_counts", "_sum", "_count")

    def __init__(
        self, bounds: tuple[float, ...], lock: threading.RLock | None = None
    ) -> None:
        self._lock = lock if lock is not None else threading.RLock()
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation (``value <= bounds[i]`` lands in bucket i)."""
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations under one lock acquisition.

        Equivalent to calling :meth:`observe` per value; the hot serving
        path records a whole micro-batch of queue waits at once, so the
        lock round-trip amortises across the batch.
        """
        if not values:
            return
        bounds = self._bounds
        bisect_left = bisect.bisect_left
        with self._lock:
            counts = self._bucket_counts
            total = 0.0
            for value in values:
                counts[bisect_left(bounds, value)] += 1
                total += value
            self._sum += total
            self._count += len(values)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Return ``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        with self._lock:
            counts = list(self._bucket_counts)
        total = 0
        out: list[tuple[float, int]] = []
        for bound, count in zip((*self._bounds, float("inf")), counts):
            total += count
            out.append((bound, total))
        return out


class _Family:
    """Base of one named metric with a fixed label-name set.

    *lock* is the owning registry's single mutation lock; a family
    constructed standalone (outside a registry, e.g. in tests) gets a
    private reentrant lock with identical semantics.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        lock: threading.RLock | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_PATTERN.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self._lock = lock if lock is not None else threading.RLock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            # Label-free families materialise their single series up front,
            # so exports always show the family at zero (metric-name drift
            # is caught even before the first event).
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels: object):
        """Return (creating if needed) the child for one label combination."""
        key = _validate_labels(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    @property
    def _default(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} declares labels {self.labelnames}; "
                f"resolve a series with .labels(...) first"
            )
        return self._children[()]

    def samples(self) -> list[tuple[dict[str, str], object]]:
        """Snapshot ``(labels, child)`` pairs in insertion order."""
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]


class Counter(_Family):
    """A monotonically increasing metric family."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-free series."""
        self._default.inc(amount)

    def value(self, **labels: object) -> float:
        """Current value of one series (the label-free one by default)."""
        child = self.labels(**labels) if labels or self.labelnames else self._default
        return child.value


class Gauge(_Family):
    """A metric family that can go up and down."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    def value(self, **labels: object) -> float:
        child = self.labels(**labels) if labels or self.labelnames else self._default
        return child.value


class Histogram(_Family):
    """A fixed-bucket histogram family."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        lock: threading.RLock | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bucket bounds must be strictly increasing"
            )
        self.buckets = bounds
        super().__init__(name, help, labelnames, lock=lock)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets, self._lock)

    def observe(self, value: float) -> None:
        """Record into the label-free series."""
        self._default.observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch into the label-free series (one lock round-trip)."""
        self._default.observe_many(values)

    def count(self, **labels: object) -> int:
        child = self.labels(**labels) if labels or self.labelnames else self._default
        return child.count

    def sum(self, **labels: object) -> float:
        child = self.labels(**labels) if labels or self.labelnames else self._default
        return child.sum


class MetricsRegistry:
    """A named collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: re-registering an
    existing name returns the existing family after checking that the type
    and label names agree (a mismatch raises ``ValueError`` — silent
    redefinition is exactly the drift this layer exists to catch).

    One reentrant lock per registry guards everything: family
    registration, child creation, and every value mutation in every
    child (see the module docstring for the full guarantee).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                if tuple(labelnames) != existing.labelnames:
                    raise ValueError(
                        f"metric {name!r} is already registered with labels "
                        f"{existing.labelnames}, not {tuple(labelnames)}"
                    )
                return existing
            family = cls(name, help, labelnames, lock=self._lock, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch) a counter family."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Register (or fetch) a gauge family."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a fixed-bucket histogram family."""
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def families(self) -> list[_Family]:
        """All registered families, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> _Family | None:
        """Return the family registered under *name*, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every family and series."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for family in self.families():
            samples = []
            if isinstance(family, Histogram):
                for labels, child in family.samples():
                    samples.append({
                        "labels": labels,
                        "buckets": {
                            ("+Inf" if bound == float("inf") else repr(bound)): count
                            for bound, count in child.cumulative_buckets()
                        },
                        "sum": child.sum,
                        "count": child.count,
                    })
                section = out["histograms"]
            else:
                for labels, child in family.samples():
                    samples.append({"labels": labels, "value": child.value})
                section = out["gauges" if isinstance(family, Gauge) else "counters"]
            section[family.name] = {
                "help": family.help,
                "labelnames": list(family.labelnames),
                "samples": samples,
            }
        return out

    def snapshot(self) -> dict:
        """Flat numeric snapshot, suitable for :func:`snapshot_delta` diffs.

        Keys are ``name{label="value",...}`` strings; counters map to their
        value, histograms contribute ``_count``/``_sum`` entries, gauges
        record their instantaneous value.
        """
        flat: dict[str, dict[str, float]] = {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        for family in self.families():
            for labels, child in family.samples():
                rendered = ",".join(
                    f'{k}="{v}"' for k, v in sorted(labels.items())
                )
                key = f"{family.name}{{{rendered}}}" if rendered else family.name
                if isinstance(family, Histogram):
                    flat["histograms"][f"{key}_count"] = child.count
                    flat["histograms"][f"{key}_sum"] = child.sum
                elif isinstance(family, Gauge):
                    flat["gauges"][key] = child.value
                else:
                    flat["counters"][key] = child.value
        return flat

    def clear_values(self) -> None:
        """Zero every series in place (testing aid).

        Families stay registered — module-level handles keep pointing at
        live children — but all counts, sums and gauge values return to 0.
        """
        for family in self.families():
            for _, child in family.samples():
                with child._lock:
                    if isinstance(child, _HistogramChild):
                        child._bucket_counts = [0] * len(child._bucket_counts)
                        child._sum = 0.0
                        child._count = 0
                    else:
                        child._value = 0.0

    def __repr__(self) -> str:
        return f"MetricsRegistry(families={len(self._families)})"


def snapshot_delta(before: Mapping, after: Mapping) -> dict:
    """Diff two :meth:`MetricsRegistry.snapshot` results.

    Counters and histogram ``_count``/``_sum`` entries report their growth
    (zero-growth entries are dropped); gauges report their latest value
    (a gauge delta is meaningless — the last write wins).
    """
    delta: dict[str, dict[str, float]] = {}
    for section in ("counters", "histograms"):
        grown = {}
        for key, value in after.get(section, {}).items():
            growth = value - before.get(section, {}).get(key, 0)
            if growth:
                grown[key] = growth
        if grown:
            delta[section] = grown
    gauges = {
        key: value
        for key, value in after.get("gauges", {}).items()
        if value != before.get("gauges", {}).get(key, 0)
    }
    if gauges:
        delta["gauges"] = gauges
    return delta


#: The process-wide registry every instrumented module registers into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """Return the process-wide default registry."""
    return REGISTRY
