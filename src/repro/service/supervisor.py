"""Worker-pool supervision: dispatch, heartbeat watchdog, crash requeue.

The :class:`Supervisor` owns a fixed-size pool of worker *processes*
(:func:`repro.service.worker.worker_main`) and a single control loop
(one daemon thread) that every tick:

1. **pumps** worker events from the shared manager queue into the
   :class:`~repro.service.store.JobStore` (progress entries, results,
   errors, heartbeats),
2. **reaps** dead workers — a worker that exited (or was SIGKILLed)
   while running a job gets its job requeued (``RUNNING → QUEUED``, up
   to ``max_attempts`` dispatches, then ``FAILED``) and a fresh process
   spawned in its place,
3. **watchdogs** busy workers whose heartbeats stopped (a wedged or
   SIGSTOPped process) by killing them, which turns them into case 2,
4. **enforces cancellations** — a job marked ``CANCELLED`` while running
   gets its worker killed and replaced (the only way to stop an
   arbitrary in-flight computation), and
5. **dispatches** queued jobs to idle workers, FIFO by acceptance.

Requeue is safe because execution is idempotent-by-cache: a re-
dispatched job re-runs its spec through the stage DAG, and every stage
the dead worker completed is a content-hash hit in the shared
:class:`~repro.pipeline.cache.ArtifactCache` — the retry pays only for
the stage that was actually interrupted.

Queues are manager-backed (like
:class:`~repro.synth.cache.SharedSynthCache`) rather than pipe-backed: a
SIGKILLed client cannot corrupt a manager queue for the survivors, which
is precisely the failure mode a supervisor exists to absorb.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import JobStateError
from repro.obs import metrics as _metrics
from repro.obs.logs import get_logger
from repro.service import jobs as _jobs
from repro.service.store import JobStore
from repro.service.worker import worker_main

_log = get_logger(__name__)


@dataclass
class WorkerHandle:
    """One pool slot: the live process plus its dispatch bookkeeping."""

    id: str
    process: multiprocessing.Process
    task_q: object
    busy_job: str = ""
    last_beat: float = field(default_factory=time.time)
    generation: int = 0

    @property
    def pid(self) -> int:
        return self.process.pid or 0

    def describe(self, now: float) -> dict:
        return {
            "id": self.id,
            "pid": self.pid,
            "alive": self.process.is_alive(),
            "busy": self.busy_job,
            "generation": self.generation,
            "beat_age_s": round(now - self.last_beat, 3),
        }


class Supervisor:
    """Supervised fan-out of store-backed jobs over worker processes.

    ``workers`` sizes the pool; ``watchdog_s`` is the no-heartbeat
    tolerance before a busy worker is presumed wedged and killed;
    ``max_attempts`` caps dispatches per job before a crash loop turns
    into ``FAILED``.  ``cache_root`` is the shared artifact-cache root
    every worker resumes from.
    """

    def __init__(
        self,
        store: JobStore,
        workers: int = 2,
        cache_root=None,
        use_cache: bool = True,
        poll_s: float = 0.1,
        watchdog_s: float = 60.0,
        max_attempts: int = 3,
        heartbeat_s: float = 0.5,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.cache_root = str(cache_root) if cache_root else None
        self.use_cache = use_cache
        self.poll_s = poll_s
        self.watchdog_s = watchdog_s
        self.max_attempts = max_attempts
        self.heartbeat_s = heartbeat_s
        self.num_workers = workers
        self._manager = None
        self._events = None
        self._workers: dict[str, WorkerHandle] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started = False

    def __getstate__(self):
        # Parent-process-only: the supervisor owns a SyncManager, live
        # worker processes and a control thread, none of which survive a
        # pickle boundary.  Workers receive (job_id, spec) payloads via
        # their task queues — never the supervisor itself.  Failing loudly
        # here beats the opaque "cannot pickle AuthenticationString" that
        # an accidental capture would raise deep inside a pool.
        raise TypeError(
            "Supervisor is not picklable: it holds a multiprocessing "
            "Manager and live worker handles; ship job payloads instead"
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Recover the store, spawn the pool, start the control loop."""
        if self._started:
            return
        self._started = True
        self.store.recover()
        self._manager = multiprocessing.Manager()
        self._events = self._manager.Queue()
        for index in range(self.num_workers):
            self._spawn(f"w{index}")
        self._thread = threading.Thread(
            target=self._loop, name="repro-supervisor", daemon=True
        )
        self._thread.start()
        _log.info(
            "supervisor up: %d worker(s), watchdog %.1fs, max %d attempts",
            self.num_workers, self.watchdog_s, self.max_attempts,
        )

    def stop(self, join_s: float = 10.0) -> None:
        """Graceful shutdown: SIGTERM busy workers (partial-result path),
        sentinel idle ones, requeue whatever was still running."""
        if not self._started:
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=join_s)
        self._pump()
        for handle in self._workers.values():
            if not handle.process.is_alive():
                continue
            if handle.busy_job:
                handle.process.terminate()
            else:
                try:
                    handle.task_q.put(None)
                except (OSError, EOFError):
                    handle.process.terminate()
        deadline = time.time() + join_s
        for handle in self._workers.values():
            handle.process.join(timeout=max(0.1, deadline - time.time()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
        self._pump()
        # Jobs still RUNNING lost their worker; the log must say QUEUED
        # so the next daemon resumes them (recover() would too — this
        # keeps the log truthful even without a restart).
        for record in self.store.list():
            if record.state == _jobs.RUNNING:
                self.store.transition(
                    record.id, _jobs.QUEUED, reason="shutdown"
                )
                _metrics.inc("service.jobs_requeued")
        self._workers.clear()
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
            self._events = None
        self._started = False
        _log.info("supervisor stopped")

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- pool plumbing ----------------------------------------------------

    def _spawn(self, worker_id: str, generation: int = 0) -> WorkerHandle:
        task_q = self._manager.Queue()
        process = multiprocessing.Process(
            target=worker_main,
            args=(worker_id, task_q, self._events, self.cache_root,
                  self.use_cache, self.heartbeat_s),
            name=f"repro-{worker_id}",
            daemon=False,  # workers may fan grid cells out to pools
        )
        process.start()
        handle = WorkerHandle(
            id=worker_id, process=process, task_q=task_q,
            generation=generation,
        )
        self._workers[worker_id] = handle
        _metrics.gauge("service.workers").set(len(self._workers))
        _log.info(
            "worker %s gen %d up (pid %d)", worker_id, generation,
            process.pid,
        )
        return handle

    def _respawn(self, handle: WorkerHandle) -> None:
        _metrics.inc("service.worker_restarts")
        self._spawn(handle.id, generation=handle.generation + 1)

    def _kill(self, handle: WorkerHandle, reason: str) -> None:
        _log.warning(
            "killing worker %s (pid %d): %s", handle.id, handle.pid, reason
        )
        handle.process.kill()
        handle.process.join(timeout=2.0)

    # -- the control loop -------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_s):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 — the loop must survive
                _log.exception("supervisor tick failed")

    def tick(self) -> None:
        """One supervision round (public so tests can single-step)."""
        self._pump()
        self._watchdog()
        self._reap()
        self._enforce_cancellations()
        self._dispatch()

    def _pump(self) -> None:
        if self._events is None:
            return
        while True:
            try:
                event = self._events.get_nowait()
            except Exception:  # queue.Empty, or manager already down
                return
            self._handle_event(event)

    def _handle_event(self, event: tuple) -> None:
        kind, worker_id = event[0], event[1]
        handle = self._workers.get(worker_id)
        if kind == "heartbeat":
            if handle is not None:
                handle.last_beat = float(event[2])
            return
        if kind == "online":
            if handle is not None:
                handle.last_beat = time.time()
            return
        job_id = event[2]
        if kind == "progress":
            entry = event[3]
            self.store.progress(job_id, entry)
            _metrics.inc(
                "service.stages_cached"
                if entry.get("cached")
                else "service.stages_executed"
            )
            return
        if handle is not None and handle.busy_job == job_id:
            handle.busy_job = ""
            handle.last_beat = time.time()
        try:
            record = self.store.get(job_id)
        except JobStateError:
            _log.warning("event %r for unknown job %s", kind, job_id)
            return
        if record.terminal:
            # A cancelled job's worker raced us to the finish line; its
            # outcome is void — the record already settled.
            return
        if kind == "result":
            _run_dict, deltas = event[3], event[4]
            _metrics.fold_counters(deltas or {})
            self.store.transition(job_id, _jobs.DONE, result=_run_dict)
            _metrics.inc("service.jobs_completed")
        elif kind == "error":
            message, deltas = event[3], event[4]
            _metrics.fold_counters(deltas or {})
            self.store.transition(job_id, _jobs.FAILED, error=message)
            _metrics.inc("service.jobs_failed")
        elif kind == "interrupted":
            # SIGTERM mid-job (shutdown, or a stray signal): requeue so
            # the job resumes — on this daemon or the next one.
            if record.state == _jobs.RUNNING:
                self.store.transition(
                    job_id, _jobs.QUEUED, reason="interrupted"
                )
                _metrics.inc("service.jobs_requeued")

    def _watchdog(self) -> None:
        now = time.time()
        for handle in self._workers.values():
            if not handle.busy_job or not handle.process.is_alive():
                continue
            if now - handle.last_beat > self.watchdog_s:
                _metrics.inc("service.watchdog_kills")
                self._kill(
                    handle,
                    f"no heartbeat for {now - handle.last_beat:.1f}s "
                    f"(job {handle.busy_job})",
                )

    def _reap(self) -> None:
        for worker_id in list(self._workers):
            handle = self._workers[worker_id]
            if handle.process.is_alive():
                continue
            exitcode = handle.process.exitcode
            _log.warning(
                "worker %s gen %d died (exitcode %s)",
                handle.id, handle.generation, exitcode,
            )
            job_id = handle.busy_job
            if job_id:
                record = self.store.get(job_id)
                if record.state == _jobs.RUNNING:
                    if record.attempts >= self.max_attempts:
                        self.store.transition(
                            job_id, _jobs.FAILED,
                            error=(
                                f"worker died (exitcode {exitcode}) on "
                                f"attempt {record.attempts}/"
                                f"{self.max_attempts}"
                            ),
                            reason="crash-loop",
                        )
                        _metrics.inc("service.jobs_failed")
                    else:
                        self.store.transition(
                            job_id, _jobs.QUEUED,
                            reason=f"worker-died-exitcode-{exitcode}",
                        )
                        _metrics.inc("service.jobs_requeued")
            self._respawn(handle)

    def _enforce_cancellations(self) -> None:
        for handle in self._workers.values():
            if not handle.busy_job or not handle.process.is_alive():
                continue
            record = self.store.get(handle.busy_job)
            if record.state == _jobs.CANCELLED:
                self._kill(handle, f"job {handle.busy_job} cancelled")
                handle.busy_job = ""
                # Dead now; the next _reap() respawns the slot.

    def _dispatch(self) -> None:
        idle = [
            h for h in self._workers.values()
            if not h.busy_job and h.process.is_alive()
        ]
        if not idle:
            return
        for record in self.store.queued():
            if not idle:
                break
            handle = idle.pop(0)
            self.store.transition(
                record.id, _jobs.RUNNING,
                worker=handle.id, worker_pid=handle.pid,
            )
            handle.busy_job = record.id
            handle.last_beat = time.time()
            handle.task_q.put(
                {
                    "id": record.id,
                    "spec": record.spec,
                    "options": record.options,
                }
            )
            _log.info(
                "job %s dispatched to %s (attempt %d)",
                record.id, handle.id, record.attempts,
            )
        _metrics.gauge("service.workers_busy").set(
            sum(1 for h in self._workers.values() if h.busy_job)
        )

    # -- introspection ----------------------------------------------------

    def health(self) -> dict:
        now = time.time()
        return {
            "status": "ok",
            "workers": [
                h.describe(now) for h in self._workers.values()
            ],
            "jobs": self.store.counts(),
        }
