"""Process-local metrics registry: counters and gauges.

One registry per process holds every named metric the library increments —
solver effort (``sat.conflicts`` / ``sat.decisions`` / ``sat.propagations``
/ ``sat.restarts``), DIP-loop progress (``dip.iterations`` /
``dip.oracle_queries``), search accounting (``search.rounds`` /
``search.energy_evaluations``), recipe-prefix synthesis-cache traffic
(``synth_cache.prefix_hits`` / ``prefix_misses`` / ``steps_saved`` /
``steps_executed``) and artifact-cache traffic (``artifact_cache.hits`` /
``misses`` / ``writes``).  The canonical name list lives in
``docs/observability.md``.

The registry is deliberately dumb and cheap: metrics are plain attribute
adds behind one dict lookup, instrumentation points sit *outside* hot
loops (the CDCL solver folds its private stats dict in once per ``solve``
call, never per propagation), and there is no locking because the registry
is process-local.  Spans (:mod:`repro.obs.trace`) snapshot the counters
on entry and record the deltas on close; pool workers
(:mod:`repro.utils.pool`) send each task's :func:`counters_delta` home,
where :func:`fold_counters` adds it to the parent's registry::

    >>> registry = MetricsRegistry()
    >>> registry.counter("dip.iterations").inc()
    >>> registry.counter("dip.iterations").inc(2)
    >>> registry.counters()["dip.iterations"]
    3
"""

from __future__ import annotations


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins numeric metric (pool sizes, cache entry counts)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class MetricsRegistry:
    """Create-or-get registry of named metrics for one process.

    A name registered as one kind cannot be re-registered as another —
    that is always an instrumentation bug, surfaced immediately.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def _check_unique(self, name: str, own: dict) -> None:
        for family in (self._counters, self._gauges):
            if family is not own and name in family:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_unique(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unique(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def counters(self) -> dict[str, int]:
        """Current counter values (the snapshot spans diff on close)."""
        return {name: c.value for name, c in self._counters.items()}

    def snapshot(self) -> dict[str, float]:
        """Every metric flattened to ``name -> number``."""
        flat: dict[str, float] = {}
        for name, counter in self._counters.items():
            flat[name] = counter.value
        for name, gauge in self._gauges.items():
            flat[name] = gauge.value
        return flat

    def reset(self) -> None:
        """Zero every metric (tests; a fresh run in a reused process)."""
        self._counters.clear()
        self._gauges.clear()


#: The process-local default registry every instrumentation point uses.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def inc(name: str, amount: int = 1) -> None:
    """One-line counter increment — the common instrumentation call."""
    REGISTRY.counter(name).inc(amount)


def counters_delta(before: dict[str, int]) -> dict[str, int]:
    """``name -> increase`` of every counter that moved since ``before``,
    a :meth:`MetricsRegistry.counters` snapshot of :data:`REGISTRY`."""
    return {
        name: value - before.get(name, 0)
        for name, value in REGISTRY.counters().items()
        if value != before.get(name, 0)
    }


def fold_counters(deltas: dict[str, int]) -> None:
    """Add counter deltas measured in another process to :data:`REGISTRY`."""
    for name, amount in deltas.items():
        if isinstance(amount, int) and amount > 0:
            REGISTRY.counter(name).inc(amount)
