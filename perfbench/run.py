"""Layered benchmark over the north-star workloads of this repository.

    python3 perfbench/run.py --workload {almost_search,grid_cold,dip_loop} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every workload unit runs in a fresh
interpreter (``unit.py``): the process-wide memos of ``repro`` fill lazily
and a CLI user pays that cost on every invocation.

``--trace 0`` repeats units on distinct locks derived from the seed until
``--seconds`` is spent and prints the end-to-end metrics.  ``--trace 1``
runs lock 0 three ways — untraced at the workload's fan-out, untraced at
``jobs=1``, traced at ``jobs=1`` — asserts the three return identical
results, and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/NOTES.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: set-up samples each untraced run takes (extra set-up-only spawns fill up)
SETUP_SAMPLES = 5
#: repeated timed calls of a unit end this long before the run's end,
#: leaving room for the unit's checks and the set-up-only spawns
TAIL_RESERVE_S = 8.0
#: a unit that runs this much longer than the slowest finished one is
#: hung (a stuck pool): it is stopped and its operations count as failed
UNIT_TIMEOUT_S = 120
HUNG_FACTOR = 3.0
#: every run ends within this many seconds
RUN_DEADLINE_S = 170
#: longest TMPDIR leaving room for ``pymp-*/listener-*`` in 107 bytes
MAX_TMPDIR_CHARS = 72
#: tail of a failed or traceback-printing unit's stderr shown in the report
STDERR_KEPT = 6000

#: what each workload calls its work, for the human-readable report:
#: (metric name, factor on work_per_s, unit)
NAMED_RATE = {
    "almost_search": ("almost.evals_per_s", 1.0, "1/s"),
    "grid_cold": ("grid.cells_per_min", 60.0, "1/min"),
    "dip_loop": ("dip.dips_per_s", 1.0, "1/s"),
}


class Units:
    """Spawns unit processes and keeps their records and stderr."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.workroot = ROOT / ".perfbench_work" / str(os.getpid())
        self.count = 0

    def spawn(self, instance: int, jobs: int, trace: int = 0,
              until: float | None = None, setup_only: bool = False,
              timeout: float = UNIT_TIMEOUT_S) -> dict:
        self.count += 1
        workdir = self.workroot / str(self.count)
        workdir.mkdir(parents=True, exist_ok=True)
        out = workdir / "record.json"
        env = dict(os.environ, REPRO_CACHE_DIR=str(workdir / "cache"))
        # multiprocessing managers put their sockets under TMPDIR; keep
        # them in the checkout unless the path would pass the AF_UNIX limit.
        tmp = workdir / "tmp"
        if len(str(tmp)) <= MAX_TMPDIR_CHARS:
            tmp.mkdir()
            env["TMPDIR"] = str(tmp)
        command = [
            sys.executable, str(HERE / "unit.py"),
            "--workload", self.workload,
            "--lock-seed", str(self.seed * 100 + instance),
            "--jobs", str(jobs), "--trace", str(trace),
            "--workdir", str(workdir / "cache"), "--out", str(out),
        ]
        if setup_only:
            command.append("--setup-only")
        if until is not None:
            command += ["--until", repr(until)]
        command += ["--spawned", repr(time.monotonic())]
        # Own process group, so pool workers and manager servers of a unit
        # that hangs or leaks are stopped with it.
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _out, stderr = proc.communicate(timeout=max(timeout, 1.0))
            error = f"exit {proc.returncode}" if proc.returncode else ""
        except subprocess.TimeoutExpired:
            # Ask the hung unit and its workers for their Python stacks.
            os.killpg(proc.pid, signal.SIGUSR1)
            time.sleep(1.0)
            _kill_group(proc.pid)
            _out, stderr = proc.communicate()
            error = f"timed out after {timeout:.0f} s"
        _kill_group(proc.pid)
        try:
            record = json.loads(out.read_text())
        except (OSError, ValueError):
            record = {}
        if error or not record:
            record = {"error": error or "no record written"}
        record["tracebacks"] = stderr.count("Traceback (most recent")
        if "error" in record or record["tracebacks"]:
            record["stderr"] = stderr[-STDERR_KEPT:]
        shutil.rmtree(workdir, ignore_errors=True)
        return record

    def close(self) -> None:
        shutil.rmtree(self.workroot, ignore_errors=True)
        try:
            self.workroot.parent.rmdir()
        except OSError:
            pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _median(values):
    return statistics.median(values) if values else 0.0


def _tally(records, workload) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for record in records:
        attempted += record.get("attempted", workload.ops_per_unit)
        failed += record.get("failed", workload.ops_per_unit)
        problems += record.get("problems", [])
        if "error" in record:
            problems.append(record["error"].strip().splitlines()[-1])
    return attempted, failed, problems


def _timeout(deadline: float, finished: list[float]) -> float:
    limit = HUNG_FACTOR * max(finished) if finished else UNIT_TIMEOUT_S
    return min(UNIT_TIMEOUT_S, limit, deadline - time.monotonic())


def measure(units: Units, workload, seconds: float):
    """Untraced units on distinct locks until ``seconds`` is spent."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    records: list[dict] = []
    finished: list[float] = []
    durations: list[float] = []
    while True:
        unit_started = time.monotonic()
        record = units.spawn(len(records), workload.jobs,
                             until=started + seconds - TAIL_RESERVE_S,
                             timeout=_timeout(deadline, finished))
        records.append(record)
        elapsed = time.monotonic() - unit_started
        if "wall_s" in record:
            finished.append(elapsed)
        durations.append(elapsed)
        # A set-up-only spawn costs about one set-up; keep room for them.
        setup_reserve = max(0, SETUP_SAMPLES - len(records)) * max(
            (r.get("setup_s", 0.0) for r in records), default=0.0
        )
        remaining = seconds - (time.monotonic() - started) - setup_reserve
        # Start another unit when the run then ends nearer to ``seconds``
        # than it does if it stops now.
        if remaining < _median(durations) / 2:
            break
    setups = [r["setup_s"] for r in records if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES:
        record = units.spawn(0, workload.jobs, setup_only=True,
                             timeout=min(30.0, deadline - time.monotonic()))
        if "setup_s" not in record:
            break
        setups.append(record["setup_s"])
    good = [r for r in records if "wall_s" in r]
    rates = [rate for r in good for rate in r["rates"]]
    metrics = {
        "work_per_s": _median(rates),
        "samples": rates,
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
        "machine.calib_ms": _calib_ms(good),
    }
    return records, metrics


def _calib_ms(records) -> float:
    """Median calibration-kernel time: how fast the machine ran meanwhile."""
    return 1000 * _median([t for r in records for t in r.get("calib", [])])


def trace_run(units: Units, workload):
    """Lock 0 untraced (fan-out jobs, then jobs=1) and traced (jobs=1)."""
    deadline = time.monotonic() + RUN_DEADLINE_S

    def spawn(jobs: int, trace: int = 0) -> dict:
        return units.spawn(0, jobs, trace=trace,
                           timeout=_timeout(deadline, []))

    fanned = spawn(workload.fanout)
    serial = spawn(1) if workload.fanout > 1 else fanned
    traced = spawn(1, trace=1)
    records = [fanned, traced] + ([serial] if serial is not fanned else [])
    problems = []
    digests = {json.dumps(r.get("digest")) for r in records}
    if len(digests) != 1:
        problems.append(
            "untraced and traced runs of one seed returned different results"
        )
    layers = dict(traced.get("layers", {}))
    if "wall_s" in fanned:
        wall = fanned["wall_s"]
        extra = fanned.get("extra", {})
        layers["proc.cpu_util"] = fanned["cpu_s"] / (
            wall * (os.cpu_count() or 1)
        )
        layers["pipeline.pool.efficiency"] = (
            extra["cell_s"] / (workload.fanout * wall)
            if "cell_s" in extra else 0.0
        )
        layers["pipeline.stages_executed"] = extra.get("stages_executed", 0)
        layers["pipeline.cache.writes"] = extra.get("cache_writes", 0)
        cache = extra.get("synth_cache", {})
        layers["synth.cache.hit_rate"] = cache.get("hit_rate", 0.0)
        layers["synth.cache.steps_executed"] = cache.get("steps_executed", 0)
        layers["core.search.evals"] = (
            fanned["work"] if workload.name == "almost_search" else 0
        )
        layers["core.proxy.train_s"] = extra.get("proxy_train_s", 0.0)
    layers["pipeline.pool.worker_tracebacks"] = sum(
        r["tracebacks"] for r in records if r is not traced
    )
    layers["machine.calib_ms"] = _calib_ms(records)
    layers["trace.coverage"] = traced.get("coverage", 0.0)
    layers["trace.overhead"] = (
        traced["wall_s"] / serial["wall_s"] - 1.0
        if "wall_s" in traced and "wall_s" in serial else 0.0
    )
    return records, layers, problems


def _predictions(workload, layers) -> list[str]:
    """The bypass predictions and the coverage floor, held or not."""
    coverage = layers.get("trace.coverage", 0.0)
    lines = [f"trace.coverage {coverage:.4f} >= 0.9"
             + ("" if coverage >= 0.9 else "  FAILED")]
    if workload.name == "dip_loop":
        calls = sum(value for name, value in layers.items()
                    if name.startswith("synth.") and name.endswith(".calls"))
        lines.append(f"synth.*.calls {calls} == 0 on dip_loop"
                     + ("" if calls == 0 else "  FAILED"))
    else:
        calls = layers.get("sat.solve.calls", 0)
        lines.append(f"sat.solve.calls {calls} == 0 on {workload.name}"
                     + ("" if calls == 0 else "  FAILED"))
    return lines


def _machine(args, workload) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": workload.jobs,
        "trace_fanout_jobs": workload.fanout,
        "params": workload.params,
    }


def _report(spec, args, workload, records, metrics, attempted, failed):
    """Human-readable table: every metric with its unit and direction."""
    rows = []
    catalog = spec["per_layer" if args.trace else "end_to_end"]
    for entry in catalog:
        rows.append((entry["name"], metrics.get(entry["name"], 0.0),
                     entry["unit"], entry["better"]))
    good = [r for r in records if "wall_s" in r]
    if not args.trace:
        rows.append(("machine.calib_ms", metrics["machine.calib_ms"], "ms",
                     "info"))
        samples = metrics["samples"]
        print(f"# work_per_s of each timed sample (n={len(samples)}): "
              + " ".join(f"{rate:.4g}" for rate in samples))
        name, factor, unit = NAMED_RATE[workload.name]
        rows.append((name, metrics["work_per_s"] * factor, unit, "higher"))
        if workload.name == "almost_search" and good:
            rows.append(("almost.proxy_train_s", _median(
                [r["extra"]["proxy_train_s"] for r in good]), "s", "lower"))
    if workload.name == "almost_search" and good:
        for key in ("acc_gap", "area_ratio"):
            rows.append((f"almost.{key}", _median(
                [r["quality"][key] for r in good]), "ratio", "lower"))
    rows.append(("ops_attempted", attempted, "count", "-"))
    rows.append(("ops_failed", failed, "count", "lower"))
    width = max(len(row[0]) for row in rows)
    for name, value, unit, better in rows:
        print(f"# {name:<{width}}  {value:>14.6g} {unit:<6} ({better})")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    units = Units(args.workload, args.seed)
    try:
        if args.trace:
            records, metrics, problems = trace_run(units, workload)
        else:
            records, metrics = measure(units, workload, args.seconds)
            problems = []
    finally:
        units.close()
    attempted, failed, found = _tally(records, workload)
    problems += found
    print("# machine and inputs: " + json.dumps(_machine(args, workload)))
    _report(spec, args, workload, records, metrics, attempted, failed)
    if args.trace:
        for line in _predictions(workload, metrics):
            print(f"# prediction: {line}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    for index, record in enumerate(records):
        if "stderr" in record:
            print(f"# stderr of unit {index}:")
            for line in record["stderr"].splitlines():
                print(f"# | {line}")
    catalog = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics.get(entry["name"], 0.0),
                            "unit": entry["unit"]}
            for entry in catalog
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
