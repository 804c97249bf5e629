"""One workload unit in a fresh interpreter (spawned by ``run.py``).

Imports ``repro`` from the checkout's ``src/``, builds the inputs, runs
the timed calls, checks the outputs and writes one JSON record to
``--out``.  Set-up time runs from the parent's spawn timestamp (the
system-wide monotonic clock) to the first timed call, so it covers
interpreter start, imports, circuit generation and locking.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _rusage() -> tuple[float, float]:
    """(CPU seconds of self + reaped children, peak RSS MB of either)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _calibrate(reps: int = 3) -> list[float]:
    """Seconds per run of a fixed pure-Python kernel independent of repro.

    Timed next to the workload so the runner can state its numbers in
    units of this machine's current speed (shared hosts drift by a third).
    """
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(200_000):
            k = (i * 2654435761) & 0xFFFF
            table[k] = table.get(k, 0) + 1
            acc ^= k
        times.append(time.perf_counter() - started)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--lock-seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--until", type=float, default=None)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # The runner sends SIGUSR1 to a hung unit: dump every thread's stack.
    faulthandler.register(signal.SIGUSR1, all_threads=True)

    import repro  # noqa: F401 — part of set-up, like any CLI invocation
    import repro.pipeline  # noqa: F401
    import repro.core  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    inputs = workload.setup(args.lock_seed)
    setup_s = time.monotonic() - args.spawned
    record: dict = {"setup_s": setup_s, "calib": _calibrate()}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(record))
        return 0

    cpu_before, _peak = _rusage()
    started = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.recording():
                outcome = workload.run(inputs, args.jobs, args.workdir,
                                       args.until)
        else:
            outcome = workload.run(inputs, args.jobs, args.workdir,
                                   args.until)
    except Exception:
        # A raising run loses every operation it held (for the grid: every
        # cell, exactly what a ``repro grid`` user loses).
        record.update(
            error=traceback.format_exc(), attempted=workload.ops_per_unit,
            failed=workload.ops_per_unit,
        )
        Path(args.out).write_text(json.dumps(record))
        return 0
    wall_s = time.perf_counter() - started
    cpu_after, peak_rss_mb = _rusage()

    record["calib"] += _calibrate()
    verdict = workload.check(inputs, outcome)
    record.update(
        attempted=workload.ops_per_unit,
        failed=verdict.pop("failed"),
        problems=verdict.pop("problems"),
        quality=verdict,
        wall_s=wall_s,
        cpu_s=cpu_after - cpu_before,
        peak_rss_mb=peak_rss_mb,
        work=outcome["work"],
        work_s=outcome["work_s"],
        rates=outcome.get("rates", [outcome["work"] / outcome["work_s"]]),
        digest=outcome["digest"],
        extra={
            key: value for key, value in outcome.items()
            if isinstance(value, (int, float, dict))
            and key not in ("work", "work_s")
        },
    )
    if tracer is not None:
        import tracing

        record["layers"] = tracing.layer_metrics(tracer)
        record["coverage"] = tracer.covered_s / wall_s
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
