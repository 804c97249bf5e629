"""Run-wide observability: spans + metrics + logging.

Three small, dependency-free layers (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — a process-local registry of named counters
  and gauges that instrumentation points increment.
* :mod:`repro.obs.trace` — hierarchical spans (run → cell → stage →
  search round → SAT solve) that snapshot the counters on entry and record
  the deltas on close, and a buffered JSONL sink.  Pool workers
  (:mod:`repro.utils.pool`) send their spans and counter deltas home with
  each task's result.
* :mod:`repro.obs.logs` — the ``repro.*`` logging hierarchy and the CLI's
  ``--verbose`` / ``--quiet`` configuration hook.
"""

from repro.obs.logs import configure_cli_logging, get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    get_registry,
    inc,
)
from repro.obs.trace import (
    NullTracer,
    Span,
    TRACE_SCHEMA,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "MetricsRegistry",
    "NullTracer",
    "REGISTRY",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "configure_cli_logging",
    "counter",
    "gauge",
    "get_logger",
    "get_registry",
    "get_tracer",
    "inc",
    "set_tracer",
    "use_tracer",
]
