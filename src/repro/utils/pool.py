"""One fork pool for every process fan-out: grid cells and search scoring.

:class:`WorkerPool` runs one task function over a batch of items in forked
worker processes.  The function reaches each worker once, inherited
through ``fork`` rather than pickled per task, so a scorer carrying a
trained proxy and its memo tables crosses the boundary once and keeps its
worker-side state across batches.

Telemetry needs no side channel: every task comes home as ``(result,
counter deltas, span records)``.  The parent folds the deltas into its
:data:`~repro.obs.metrics.REGISTRY` and appends the records to its tracer
(:meth:`~repro.obs.trace.Tracer.absorb`).  A task's top-level spans parent
to the span that was open in the parent when the batch was submitted, so a
traced run is one tree across processes, and a parent span such as
``run`` counts the work its workers did.

Workers ignore SIGINT (a terminal's Ctrl-C reaches the whole process
group; teardown belongs to the parent) and die quietly on SIGTERM, whatever
handler the parent had installed when it forked them.  A pool used as a
context manager shuts down with ``close()`` + ``join()`` on success;
``terminate()`` is for interrupts and errors only.
"""

from __future__ import annotations

import multiprocessing
import signal
from typing import Any, Callable, Iterator, Sequence

from repro.obs.metrics import REGISTRY, counters_delta, fold_counters
from repro.obs.trace import Tracer, get_tracer, set_tracer, use_tracer

# The task function of this worker process (set by the pool initializer).
_TASK_FN = None


def _init_worker(fn: Callable) -> None:
    global _TASK_FN
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _TASK_FN = fn
    # Drop the tracer (and its open sink) inherited from the parent.
    set_tracer(None)


def _run_task(task) -> tuple:
    index, tracing, parent_id, item = task
    before = REGISTRY.counters()
    tracer = Tracer(parent_id=parent_id) if tracing else None
    with use_tracer(tracer):
        result = _TASK_FN(item)
    records = tracer.records if tracer is not None else []
    return index, result, counters_delta(before), records


class WorkerPool:
    """``jobs`` forked workers applying ``fn`` to the items of each batch."""

    def __init__(self, fn: Callable, jobs: int):
        self._pool = multiprocessing.get_context("fork").Pool(
            jobs, initializer=_init_worker, initargs=(fn,)
        )

    def imap(self, items: Sequence) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, fn(items[index]))`` as each task finishes.

        A task's counter deltas and spans are folded in on arrival.  A
        worker exception re-raises here.
        """
        tracer = get_tracer()
        parent_id = tracer.current_span_id() if tracer.enabled else None
        tasks = [
            (index, tracer.enabled, parent_id, item)
            for index, item in enumerate(items)
        ]
        for index, result, deltas, records in self._pool.imap_unordered(
            _run_task, tasks
        ):
            fold_counters(deltas)
            if records:
                tracer.absorb(records)
            yield index, result

    def map(self, items: Sequence) -> list:
        """``[fn(item) for item in items]``, computed across the workers."""
        results: list = [None] * len(items)
        for index, result in self.imap(items):
            results[index] = result
        return results

    def close(self) -> None:
        """Let the workers finish and exit; idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Kill the workers without waiting for in-flight tasks; idempotent."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()
