"""The worker process: pulls assigned jobs, runs them, streams events.

One worker = one long-lived OS process spawned by the
:class:`~repro.service.supervisor.Supervisor`.  It owns nothing durable:
every fact the daemon needs — liveness, per-stage progress, the final
:class:`~repro.pipeline.runner.RunResult` — flows back through the
supervisor's manager queue as a plain-tuple event, so a SIGKILLed worker
loses only its in-flight process state, never recorded history.

Event protocol (worker -> supervisor), all tuples headed by a kind tag::

    ("online",      worker_id, pid)
    ("heartbeat",   worker_id, t_wall)                      # watchdog food
    ("progress",    worker_id, job_id, stage_entry_dict)
    ("result",      worker_id, job_id, run_dict, metric_deltas)
    ("error",       worker_id, job_id, message, metric_deltas)
    ("interrupted", worker_id, job_id)                      # SIGTERM path

Heartbeats come from a daemon thread, so they keep flowing through long
CPU-bound stages; only a truly wedged (or stopped) process goes silent,
which is exactly what the supervisor's watchdog is for.  ``metric_deltas``
carries the worker-local :mod:`repro.obs.metrics` counter movement for the
job (artifact-cache traffic, solver effort), which the supervisor folds
into the daemon registry — ``GET /metrics`` aggregates across the pool.

SIGTERM is mapped to :class:`KeyboardInterrupt`, so a graceful shutdown
rides the same partial-result path as Ctrl-C in ``repro grid``
(:meth:`Runner.run` returns with ``interrupted=True``); SIGINT is ignored
because a foreground daemon's Ctrl-C reaches the whole process group and
teardown belongs to the supervisor.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.obs.metrics import REGISTRY, counters_delta
from repro.obs.trace import get_tracer, set_tracer
from repro.pipeline.runner import Runner
from repro.pipeline.spec import ExperimentSpec


def _heartbeat_loop(worker_id: str, event_q, interval_s: float, stop) -> None:
    while not stop.wait(interval_s):
        try:
            event_q.put(("heartbeat", worker_id, time.time()))
        except (OSError, EOFError, BrokenPipeError):
            return  # supervisor is gone; nothing left to feed


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def run_job(
    worker_id: str,
    task: dict,
    event_q,
    cache_root,
    use_cache: bool = True,
) -> bool:
    """Execute one assigned job; returns False when the worker must exit
    (the run was interrupted by SIGTERM)."""
    job_id = task["id"]
    options = task.get("options") or {}
    stage_delay = float(options.get("stage_delay_s") or 0.0)

    def progress(entry: dict) -> None:
        event_q.put(("progress", worker_id, job_id, entry))
        if stage_delay:
            # Chaos/testing knob: hold here so supervision tests get a
            # deterministic window to kill the worker mid-job.
            time.sleep(stage_delay)

    before = dict(REGISTRY.counters())
    try:
        spec = ExperimentSpec.from_dict(task["spec"])
        runner = Runner(
            workdir=cache_root,
            jobs=int(options.get("jobs", 1)),
            use_cache=use_cache,
            progress=progress,
        )
        with get_tracer().span("job", job=job_id, worker=worker_id):
            run = runner.run(spec)
    except KeyboardInterrupt:
        event_q.put(("interrupted", worker_id, job_id))
        return False
    except Exception as exc:  # noqa: BLE001 — job isolation:
        # any worker-side failure becomes a FAILED job, never a dead pool.
        event_q.put(
            ("error", worker_id, job_id,
             f"{type(exc).__name__}: {exc}", counters_delta(before))
        )
        return True
    if run.interrupted:
        event_q.put(("interrupted", worker_id, job_id))
        return False
    event_q.put(
        ("result", worker_id, job_id, run.to_dict(),
         counters_delta(before))
    )
    return True


def worker_main(
    worker_id: str,
    task_q,
    event_q,
    cache_root=None,
    use_cache: bool = True,
    heartbeat_s: float = 1.0,
) -> None:
    """Process entry point: heartbeat thread + the task loop.

    ``task_q`` delivers job assignment dicts (``{"id", "spec",
    "options"}``); ``None`` is the shutdown sentinel.
    """
    signal.signal(signal.SIGTERM, _raise_interrupt)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Drop any tracer (and open sink) inherited from the daemon process.
    set_tracer(None)
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, event_q, heartbeat_s, stop),
        daemon=True,
    )
    beat.start()
    try:
        event_q.put(("online", worker_id, os.getpid()))
        while True:
            try:
                task = task_q.get()
            except KeyboardInterrupt:
                break  # SIGTERM while idle
            if task is None:
                break
            if not run_job(
                worker_id, task, event_q, cache_root, use_cache
            ):
                break
    finally:
        stop.set()
