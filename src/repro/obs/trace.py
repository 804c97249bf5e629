"""Hierarchical tracing: spans and a buffered JSONL sink.

A *span* is one timed region of a run — ``run`` → ``cell`` → ``stage`` →
``search.round`` → ``sat.solve`` — opened as a context manager on the
process-local tracer.  Spans nest lexically (the tracer keeps the open
stack), carry free-form attributes, and on close record the **delta of
every metrics counter** (:mod:`repro.obs.metrics`) that moved while they
were open, which is what ties "this attack stage" to "these 9 DIPs, 412
conflicts, 18 oracle queries" without hand-threading numbers through
return values.

The default tracer is a :class:`NullTracer` whose ``span()`` returns one
shared no-op object — the disabled path allocates nothing and is pinned
near zero by ``benchmarks/test_bench_obs.py``.  Instrumentation points
therefore never guard themselves::

    >>> with get_tracer().span("demo"):   # NullTracer: no-op
    ...     pass
    >>> tracer = Tracer()
    >>> with use_tracer(tracer):
    ...     with tracer.span("run", label="demo"):
    ...         with tracer.span("stage", stage="lock"):
    ...             pass
    >>> [r["name"] for r in tracer.records]
    ['stage', 'run']
    >>> tracer.records[0]["parent_id"] == tracer.records[1]["span_id"]
    True

**Crossing processes.**  A pool worker (:mod:`repro.utils.pool`) records
each task into a fresh buffer-only tracer whose top-level spans parent to
the span that was open in the parent when the batch was submitted; the
records travel home with the task's result and the parent appends them
with :meth:`Tracer.absorb`, so one tree spans every process.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from typing import IO, Iterator, Optional, Sequence, Union

from repro.obs.metrics import REGISTRY, counters_delta

#: Bumped when the JSONL record shape changes (see docs/observability.md).
TRACE_SCHEMA = 1

#: Process-wide span-id counter.  Module-level so the per-task tracers of
#: one pool worker process never reuse an id.
_ID_COUNTER = itertools.count(1)


def _next_span_id() -> str:
    return f"{os.getpid():x}-{next(_ID_COUNTER):x}"


class Span:
    """One open trace region; created by :meth:`Tracer.span`."""

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "attrs",
        "_started", "_wall", "_counters",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.span_id = _next_span_id()
        self.parent_id: Optional[str] = None
        self.attrs = attrs
        self._started = 0.0
        self._wall = 0.0
        self._counters: dict[str, int] = {}

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (cache-hit flags, sizes)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.parent_id = self.tracer._push(self)
        self._wall = time.time()
        self._counters = REGISTRY.counters()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._started
        deltas = counters_delta(self._counters)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._pop(self)
        self.tracer._emit(
            {
                "kind": "span",
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "pid": os.getpid(),
                "t_wall": round(self._wall, 6),
                "elapsed_s": round(elapsed, 6),
                "attrs": self.attrs,
                "metrics": deltas,
            }
        )
        return False


class _NullSpan:
    """The shared no-op span the disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracing: every call is a no-op, nothing is allocated."""

    enabled = False
    records: tuple = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer:
    """Collects spans into a buffer and (optionally) a JSONL file.

    ``path`` names the sink; records are buffered and written out every
    ``buffer_limit`` records and on :meth:`flush`/:meth:`close`.  Without a
    path everything stays in :attr:`records` (what the tests read and what
    pool workers send home).  ``parent_id`` is the span id top-level spans
    hang off (a pool worker's per-task tracer gets the parent process's
    open span).  The tracer is also a context manager — ``with
    Tracer(path) as t`` flushes and closes the sink on exit.
    """

    enabled = True

    def __init__(
        self,
        path: Optional[Union[str, os.PathLike]] = None,
        buffer_limit: int = 256,
        parent_id: Optional[str] = None,
    ):
        self.path = str(path) if path else None
        self.buffer_limit = buffer_limit
        self.records: list[dict] = []
        self._stack: list[Span] = []
        self._sink: Optional[IO[str]] = None
        self._parent_id = parent_id
        self._closed = False

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """A point-in-time record under the currently open span."""
        self._emit(
            {
                "kind": "event",
                "name": name,
                "span_id": _next_span_id(),
                "parent_id": self.current_span_id(),
                "pid": os.getpid(),
                "t_wall": round(time.time(), 6),
                "elapsed_s": 0.0,
                "attrs": attrs,
                "metrics": {},
            }
        )

    def current_span_id(self) -> Optional[str]:
        if self._stack:
            return self._stack[-1].span_id
        return self._parent_id

    def _push(self, span: Span) -> Optional[str]:
        parent = self.current_span_id()
        self._stack.append(span)
        return parent

    def _pop(self, span: Span) -> None:
        # Tolerate a mispaired exit instead of corrupting the stack.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)

    # -- record flow -------------------------------------------------------

    def _emit(self, record: dict) -> None:
        self.absorb((record,))

    def absorb(self, records: Sequence[dict]) -> None:
        """Append records — one span's, or the ones a pool worker sent home
        with its task's result."""
        self.records.extend(records)
        if self.path and len(self.records) >= self.buffer_limit:
            self.flush()

    @property
    def span_count(self) -> int:
        return sum(1 for r in self.records if r.get("kind") == "span")

    # -- sink --------------------------------------------------------------

    def _open_sink(self) -> IO[str]:
        """Exclusively create the sink file, never clobbering a sibling.

        Two tracers pointed at the same path (two grid runs launched with
        the same ``--trace`` argument, a daemon and a CLI sharing a
        scratch dir) used to silently truncate each other's output.
        ``O_EXCL`` makes creation atomic; on collision the name gets a
        ``-1``/``-2``/... suffix and :attr:`path` is updated to the file
        actually written, so callers report the real location.
        """
        base = self.path
        stem, dot, ext = base.rpartition(".")
        for attempt in range(1000):
            candidate = (
                base if attempt == 0
                else f"{stem}-{attempt}{dot}{ext}" if dot
                else f"{base}-{attempt}"
            )
            try:
                fd = os.open(
                    candidate, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                continue
            self.path = candidate
            return os.fdopen(fd, "w")
        raise OSError(
            f"could not create trace sink near {base!r}: 1000 suffixed "
            "names already exist"
        )

    def flush(self) -> None:
        """Append buffered records to the JSONL sink (no-op without one).

        Opens the sink (writing the header line) on first call even with an
        empty buffer, so a traced run always leaves a readable file behind.
        """
        if not self.path:
            return
        if self._sink is None:
            self._sink = self._open_sink()
            self._sink.write(
                json.dumps(
                    {"kind": "header", "schema": TRACE_SCHEMA,
                     "pid": os.getpid(), "t_wall": round(time.time(), 6)}
                )
                + "\n"
            )
        for record in self.records:
            self._sink.write(json.dumps(record) + "\n")
        self._sink.flush()
        self.records = []

    def close(self) -> None:
        """Flush and close the sink; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: The process-local active tracer; NullTracer until someone enables one.
_TRACER: Union[Tracer, NullTracer] = NullTracer()


def get_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer — what every instrumentation point calls."""
    return _TRACER


def set_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> None:
    """Install ``tracer`` as the process's active tracer (None disables)."""
    global _TRACER
    _TRACER = tracer if tracer is not None else NullTracer()


@contextmanager
def use_tracer(
    tracer: Optional[Union[Tracer, NullTracer]],
) -> Iterator[Union[Tracer, NullTracer]]:
    """Scoped :func:`set_tracer`; restores the previous tracer on exit."""
    previous = _TRACER
    set_tracer(tracer)
    try:
        yield _TRACER
    finally:
        set_tracer(previous)
