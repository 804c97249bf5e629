"""Stage-DAG execution: topological order, artifact cache, process pool.

A grid cell (one benchmark × one attack) is a small DAG::

    benchmark --> lock --> [defense] --> synth --> attack

Each stage's fingerprint chains the SHA-256 of its spec with its
dependencies' fingerprints, so any upstream change (different seed, bigger
key, new recipe) transparently invalidates everything downstream while
untouched prefixes keep hitting the :class:`~repro.pipeline.cache.\
ArtifactCache`.  Cells are independent, so :class:`Runner` fans them out
over a :class:`~repro.utils.pool.WorkerPool` — the Table 1/2-style sweeps
become embarrassingly parallel, and because workers share the on-disk
cache, the lock/synth prefix of a benchmark is computed once no matter how
many attacks cross it.  Each cell's spans and counter deltas come home
with its result, so the parent's ``run`` span counts the work of every
cell, wherever it ran.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.errors import PipelineError
from repro.obs.logs import get_logger
from repro.obs.trace import get_tracer
from repro.pipeline import stages as _stages  # populate the registry
from repro.pipeline import registry
from repro.pipeline.cache import (
    CACHE_SCHEMA,
    ArtifactCache,
    file_digest,
    fingerprint,
)
from repro.pipeline.spec import AttackSpec, BenchmarkSpec, ExperimentSpec
from repro.pipeline.stages import AttackContext, resolve_recipe
from repro.utils.pool import WorkerPool

_MISS = object()

_log = get_logger(__name__)


# -- generic DAG machinery ------------------------------------------------

@dataclass
class Stage:
    """One node of the cell DAG.

    ``payload`` is the JSON-able content that, together with the
    dependencies' fingerprints, identifies the work; ``fn`` receives the
    dependency artifacts keyed by stage name.
    """

    name: str
    payload: Any
    deps: tuple[str, ...]
    fn: Callable[[dict[str, Any]], Any]
    cacheable: bool = True


def topological_order(stages: Sequence[Stage]) -> list[Stage]:
    """Kahn's algorithm over the stage graph; rejects cycles/unknown deps."""
    by_name = {stage.name: stage for stage in stages}
    if len(by_name) != len(stages):
        raise PipelineError("duplicate stage names in the pipeline graph")
    for stage in stages:
        for dep in stage.deps:
            if dep not in by_name:
                raise PipelineError(
                    f"stage {stage.name!r} depends on unknown stage {dep!r}"
                )
    pending = {stage.name: set(stage.deps) for stage in stages}
    order: list[Stage] = []
    ready = sorted(name for name, deps in pending.items() if not deps)
    while ready:
        name = ready.pop(0)
        del pending[name]
        order.append(by_name[name])
        newly_ready = sorted(
            other
            for other, deps in pending.items()
            if name in deps and not (deps.discard(name) or deps)
        )
        ready = sorted(set(ready) | set(newly_ready))
    if pending:
        raise PipelineError(
            f"stage graph has a cycle through {sorted(pending)}"
        )
    return order


def execute_stages(
    stage_list: Sequence[Stage],
    cache: Optional[ArtifactCache],
    progress: Optional[Callable[[dict], None]] = None,
) -> tuple[dict[str, Any], list[dict]]:
    """Run a stage DAG; returns (artifacts by stage, execution log).

    ``progress`` (if given) receives each execution-log entry as soon as
    its stage settles — the job daemon streams these to the client.
    """
    artifacts: dict[str, Any] = {}
    fingerprints: dict[str, str] = {}
    log: list[dict] = []
    tracer = get_tracer()
    for stage in topological_order(stage_list):
        chain = [fingerprints[dep] for dep in stage.deps]
        digest = fingerprint(CACHE_SCHEMA, stage.name, stage.payload, chain)
        fingerprints[stage.name] = digest
        started = time.perf_counter()
        with tracer.span(
            "stage", stage=stage.name, fingerprint=digest
        ) as span:
            value = _MISS
            cached = False
            if cache is not None and stage.cacheable:
                value = cache.get(digest, default=_MISS)
                cached = value is not _MISS
            if value is _MISS:
                value = stage.fn(
                    {dep: artifacts[dep] for dep in stage.deps}
                )
                if cache is not None and stage.cacheable:
                    cache.put(digest, value)
            span.set(cached=cached)
        elapsed = round(time.perf_counter() - started, 6)
        _log.debug(
            "stage %s %s (%.3fs, fingerprint %s)",
            stage.name, "cached" if cached else "executed", elapsed,
            digest[:12],
        )
        artifacts[stage.name] = value
        entry = {
            "stage": stage.name,
            "fingerprint": digest,
            "cached": cached,
            "elapsed_s": elapsed,
        }
        log.append(entry)
        if progress is not None:
            progress(entry)
    return artifacts, log


# -- results --------------------------------------------------------------

@dataclass
class CellResult:
    """One grid cell reduced to JSON-able numbers.

    ``strategy`` names the search-strategy variant the cell belongs to
    when the spec declared a :class:`~repro.pipeline.spec.DefenseSpec`
    strategy sweep; empty for ordinary (non-sweep) runs.
    """

    benchmark: str
    attack: str
    key_size: int
    predicted_key: str
    accuracy: Optional[float]
    recipe: str
    elapsed_s: float
    stages: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    strategy: str = ""

    @property
    def cached_stages(self) -> int:
        return sum(1 for entry in self.stages if entry["cached"])

    @property
    def executed_stages(self) -> int:
        return sum(1 for entry in self.stages if not entry["cached"])

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "CellResult":
        return CellResult(**dict(data))


@dataclass
class RunResult:
    """A whole grid run: cells plus cache accounting, JSON round-trip.

    ``warmup`` records stage executions performed by the parallel
    prefix-warming pass (shared benchmark→lock→defense→synth work done
    before the attack cells fan out); they belong to no single cell but
    count toward the executed/cached totals.  ``interrupted`` marks a
    partial run (Ctrl-C / SIGTERM landed mid-grid): ``cells`` holds only
    what completed, and re-running the same spec resumes from the cache.
    """

    name: str
    cells: list[CellResult]
    elapsed_s: float
    cache: dict = field(default_factory=dict)
    spec: dict = field(default_factory=dict)
    warmup: list = field(default_factory=list)
    interrupted: bool = False

    @property
    def executed_stages(self) -> int:
        return sum(cell.executed_stages for cell in self.cells) + sum(
            1 for entry in self.warmup if not entry["cached"]
        )

    @property
    def cached_stages(self) -> int:
        return sum(cell.cached_stages for cell in self.cells) + sum(
            1 for entry in self.warmup if entry["cached"]
        )

    def cell(
        self, benchmark: str, attack: str = "", strategy: str = ""
    ) -> CellResult:
        """Look up one grid cell by benchmark label (and attack name).

        ``strategy`` narrows the lookup to one variant of a strategy-sweep
        run; left empty, the first matching cell wins (sweep variants keep
        spec order).
        """
        for candidate in self.cells:
            if (
                candidate.benchmark == benchmark
                and candidate.attack == attack
                and (not strategy or candidate.strategy == strategy)
            ):
                return candidate
        raise PipelineError(
            f"no cell ({benchmark!r}, {attack!r}"
            + (f", {strategy!r}" if strategy else "")
            + ") in this run; have "
            f"{[(c.benchmark, c.attack, c.strategy) for c in self.cells]}"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "elapsed_s": self.elapsed_s,
            "executed_stages": self.executed_stages,
            "cached_stages": self.cached_stages,
            "cache": self.cache,
            "cells": [cell.to_dict() for cell in self.cells],
            "spec": self.spec,
            "warmup": self.warmup,
            "interrupted": self.interrupted,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RunResult":
        return RunResult(
            name=data.get("name", ""),
            cells=[CellResult.from_dict(c) for c in data.get("cells", [])],
            elapsed_s=data.get("elapsed_s", 0.0),
            cache=dict(data.get("cache", {})),
            spec=dict(data.get("spec", {})),
            warmup=list(data.get("warmup", [])),
            interrupted=bool(data.get("interrupted", False)),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunResult":
        return RunResult.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @staticmethod
    def load(path: Union[str, Path]) -> "RunResult":
        return RunResult.from_json(Path(path).read_text())


def _json_safe(value: Any) -> Any:
    """Reduce a details payload to JSON-able primitives (drop the rest)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        result = {}
        for k, v in value.items():
            safe = _json_safe(v)
            if safe is not None or v is None:
                result[str(k)] = safe
        return result
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if hasattr(value, "item"):
        # numpy scalars (and 1-element arrays): unwrap to the native type.
        try:
            return _json_safe(value.item())
        except (TypeError, ValueError):
            return None
    return None


# -- the runner -----------------------------------------------------------

class Runner:
    """Executes :class:`ExperimentSpec` grids with caching and fan-out.

    ``workdir`` overrides the artifact-cache root (default
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``); ``jobs`` > 1 distributes
    grid cells over a process pool; ``use_cache=False`` recomputes
    everything (cold-run benchmarking).  ``progress`` receives each
    stage's execution-log entry (labelled with its benchmark/attack) as
    it settles — the job daemon's workers stream these upward.
    """

    def __init__(
        self,
        workdir: Optional[Union[str, Path]] = None,
        jobs: int = 1,
        use_cache: bool = True,
        cache: Optional[ArtifactCache] = None,
        progress: Optional[Callable[[dict], None]] = None,
    ):
        if jobs < 1:
            raise PipelineError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.use_cache = use_cache
        self.progress = progress
        self.workdir = Path(workdir).expanduser() if workdir else None
        if cache is not None:
            self.cache: Optional[ArtifactCache] = cache
        elif use_cache:
            self.cache = ArtifactCache(self.workdir)
        else:
            self.cache = None

    # -- validation -------------------------------------------------------

    def validate(self, spec: ExperimentSpec) -> None:
        """Fail fast on unknown registry names before any work starts."""
        registry.get("locker", spec.lock.locker)
        for attack in spec.attacks:
            registry.get("attack", attack.name)
        if spec.defense is not None:
            registry.get("defense", spec.defense.name)
            if spec.defense.is_sweep and spec.defense.name not in (
                _stages.SEARCH_DEFENSES
            ):
                # Structural defenses ignore the strategy; expanding a
                # sweep would recompute byte-identical cells per entry.
                raise PipelineError(
                    f"defense {spec.defense.name!r} does not run a recipe "
                    f"search, so a strategy sweep "
                    f"{list(spec.defense.strategies)} would only duplicate "
                    f"identical cells; sweeps apply to "
                    f"{sorted(_stages.SEARCH_DEFENSES)}"
                )
            # A typo'd search strategy must not survive until after the
            # lock + proxy-training stages have already burned minutes —
            # sweeps are checked entry by entry for the same reason.
            from repro.core.search import get_strategy

            for strategy in spec.defense.strategies:
                get_strategy(strategy)
        else:
            resolve_recipe(spec.synth)  # SynthesisError on a bad recipe
        registry.get("reporter", spec.report.format)

    # -- cell graph construction -----------------------------------------

    def _build_cell_stages(
        self,
        spec: ExperimentSpec,
        bench: BenchmarkSpec,
        attack: Optional[AttackSpec],
    ) -> list[Stage]:
        bench_payload = bench.to_dict()
        if bench.path:
            # Tie the fingerprint to the file *content*, not the path.
            bench_payload["sha256"] = file_digest(bench.path)

        def load_benchmark(_deps: dict) -> Any:
            if bench.path:
                from repro.netlist.bench_io import load_bench

                return load_bench(bench.path)
            from repro.circuits import load_iscas85

            return load_iscas85(bench.name, scale=bench.scale, seed=bench.seed)

        def lock(deps: dict) -> Any:
            locker = registry.get("locker", spec.lock.locker)
            return locker(deps["benchmark"], spec.lock)

        stage_list = [
            Stage("benchmark", bench_payload, (), load_benchmark),
            Stage("lock", spec.lock.to_dict(), ("benchmark",), lock),
        ]

        synth_deps: tuple[str, ...] = ("lock",)
        if spec.defense is not None:
            def defend(deps: dict) -> Any:
                defense = registry.get("defense", spec.defense.name)
                return defense(deps["lock"], spec.defense)

            stage_list.append(
                Stage("defense", spec.defense.to_dict(), ("lock",), defend)
            )
            synth_deps = ("lock", "defense")

        def synthesize(deps: dict) -> Any:
            from repro.synth.engine import synthesize_and_map
            from repro.synth.recipe import Recipe

            if spec.defense is not None and "recipe" in deps["defense"]:
                # Recipe-search defense (almost): follow its recipe.
                recipe = Recipe.parse(deps["defense"]["recipe"])
            else:
                # No defense, or a structural defense that replaced the
                # lock artifact instead of choosing a recipe.
                recipe = resolve_recipe(spec.synth)
            locked_netlist = _stages.effective_lock(deps).netlist
            if recipe is None:
                # "none" provider: attack the locked netlist exactly as
                # given; only the mapped view is derived (for structural
                # attacks).
                from repro.aig.build import aig_from_netlist
                from repro.mapping.mapper import map_aig

                return _stages.SynthArtifact(
                    netlist=locked_netlist,
                    mapped=map_aig(aig_from_netlist(locked_netlist)),
                    recipe="",
                )
            netlist, mapped = synthesize_and_map(
                locked_netlist, recipe, verify=spec.synth.verify or None
            )
            return _stages.SynthArtifact(
                netlist=netlist, mapped=mapped, recipe=recipe.short()
            )

        stage_list.append(
            Stage("synth", spec.synth.to_dict(), synth_deps, synthesize)
        )

        if attack is not None:
            attack_deps: tuple[str, ...] = ("lock", "synth")
            if spec.defense is not None:
                # Structural defenses extend the key; the attack must see
                # the defended artifact, not the pre-defense lock.
                attack_deps = ("lock", "defense", "synth")

            def run_attack(deps: dict) -> Any:
                adapter = registry.get("attack", attack.name)
                synth_artifact = deps["synth"]
                from repro.synth.recipe import Recipe

                context = AttackContext(
                    lock=_stages.effective_lock(deps),
                    synth=synth_artifact,
                    recipe=Recipe.parse(synth_artifact.recipe),
                )
                result = adapter(context, attack.params)
                summary = {
                    "attack_name": result.attack_name or attack.name,
                    "predicted_bits": list(result.predicted_bits),
                    "key_size": result.key_size,
                    "confidence": [float(c) for c in result.confidence],
                    "details": _json_safe(result.details) or {},
                }
                summary["accuracy"] = (
                    float(result.accuracy)
                    if result.true_key is not None
                    else None
                )
                return summary

            stage_list.append(
                Stage("attack", attack.to_dict(), attack_deps, run_attack)
            )
        return stage_list

    # -- execution --------------------------------------------------------

    def cell_artifacts(
        self,
        spec: ExperimentSpec,
        bench: Optional[BenchmarkSpec] = None,
        attack: Optional[AttackSpec] = None,
    ) -> dict[str, Any]:
        """Raw stage artifacts for one cell (cache-hot on a warm store).

        This is the escape hatch for callers that need the actual netlists
        or mapped circuits — e.g. ``repro defend --out`` writing the
        defended design, or the re-synthesis sweep seeding its SA search.
        """
        bench = bench if bench is not None else spec.benchmarks[0]
        artifacts, _log = execute_stages(
            self._build_cell_stages(spec, bench, attack), self.cache
        )
        return artifacts

    def run_cell(
        self,
        spec: ExperimentSpec,
        bench: BenchmarkSpec,
        attack: Optional[AttackSpec],
    ) -> CellResult:
        started = time.perf_counter()
        attack_label = attack.cell_label if attack is not None else ""
        progress = None
        if self.progress is not None:
            def progress(entry, _b=bench.label, _a=attack_label):
                self.progress({**entry, "benchmark": _b, "attack": _a})
        with get_tracer().span(
            "cell", benchmark=bench.label, attack=attack_label
        ):
            artifacts, log = execute_stages(
                self._build_cell_stages(spec, bench, attack), self.cache,
                progress=progress,
            )
        lock_artifact = _stages.effective_lock(artifacts)
        synth_artifact = artifacts["synth"]
        details: dict = {}
        if spec.defense is not None:
            # Structural defenses carry a LockArtifact under "lock";
            # _json_safe drops it (and anything else non-serializable).
            details["defense"] = _json_safe(dict(artifacts["defense"])) or {}
        predicted_key = ""
        accuracy = None
        if attack is not None:
            summary = artifacts["attack"]
            predicted_key = "".join(
                str(bit) for bit in summary["predicted_bits"]
            )
            accuracy = summary["accuracy"]
            details["attack"] = summary["details"]
            details["confidence"] = summary["confidence"]
        return CellResult(
            benchmark=bench.label,
            attack=attack.cell_label if attack is not None else "",
            key_size=len(lock_artifact.key_inputs),
            predicted_key=predicted_key,
            accuracy=accuracy,
            recipe=synth_artifact.recipe,
            elapsed_s=round(time.perf_counter() - started, 6),
            stages=log,
            details=details,
        )

    def _expanded(self, spec: ExperimentSpec) -> list[tuple[str, ExperimentSpec]]:
        """(strategy label, single-strategy sub-spec) pairs.

        A :class:`DefenseSpec` strategy sweep becomes one sub-spec per
        strategy (in declared order); everything else passes through as a
        single unlabelled sub-spec, so downstream stages only ever see
        single-strategy specs.
        """
        if spec.defense is None or not spec.defense.is_sweep:
            return [("", spec)]
        return [
            (variant.strategy, dataclasses.replace(spec, defense=variant))
            for variant in spec.defense.variants()
        ]

    @staticmethod
    def _install_sigterm():
        """Map SIGTERM onto :class:`KeyboardInterrupt` for the duration
        of a run, so daemon-style termination rides the same
        partial-result path as Ctrl-C.  Returns the previous handler, or
        ``None`` when signals are off-limits (not the main thread)."""
        if threading.current_thread() is not threading.main_thread():
            return None

        def _terminate(signum, frame):
            raise KeyboardInterrupt

        try:
            return signal.signal(signal.SIGTERM, _terminate)
        except (ValueError, OSError):
            return None

    def run(self, spec: ExperimentSpec) -> RunResult:
        """Execute the whole grid; cells fan out when ``jobs`` > 1.

        A strategy sweep multiplies the grid: every benchmark × attack
        cell runs once per swept strategy, tagged via
        :attr:`CellResult.strategy`.

        Ctrl-C (or SIGTERM) mid-grid does not lose the completed work:
        the pool is torn down, finished cells are kept, and the result
        comes back with ``interrupted=True`` — re-running the same spec
        resumes from the artifact cache.
        """
        self.validate(spec)
        started = time.perf_counter()
        expanded = self._expanded(spec)
        total_cells = sum(len(sub.cells) for _label, sub in expanded)
        _log.info(
            "run %s: %d cell(s), jobs=%d", spec.name or "<unnamed>",
            total_cells, self.jobs,
        )
        warmup: list = []
        interrupted = False
        restore = self._install_sigterm()
        try:
            with get_tracer().span(
                "run", run=spec.name, cells=total_cells, jobs=self.jobs
            ):
                if self.jobs > 1 and total_cells > 1:
                    results, warmup, interrupted = self._run_parallel(
                        expanded
                    )
                else:
                    results = []
                    try:
                        for label, sub in expanded:
                            for bench, attack in sub.cells:
                                cell = self.run_cell(sub, bench, attack)
                                cell.strategy = label
                                results.append(cell)
                    except KeyboardInterrupt:
                        interrupted = True
        finally:
            if restore is not None:
                signal.signal(signal.SIGTERM, restore)
        if interrupted:
            _log.warning(
                "run %s interrupted: %d/%d cell(s) completed",
                spec.name or "<unnamed>", len(results), total_cells,
            )
        return RunResult(
            name=spec.name,
            cells=results,
            elapsed_s=round(time.perf_counter() - started, 6),
            cache=self.cache.stats() if self.cache is not None else {},
            spec=spec.to_dict(),
            warmup=warmup,
            interrupted=interrupted,
        )

    def _run_parallel(
        self,
        expanded: Sequence[tuple[str, ExperimentSpec]],
    ) -> tuple[list[CellResult], list, bool]:
        cache_root = str(self.cache.root) if self.cache is not None else None
        warm_prefixes = self.use_cache and cache_root is not None
        # Same (variant × benchmark × attack) order as the serial path, by
        # index — spec dataclasses carry dict params and are not hashable.
        payloads = []
        prefix_payloads = []
        for label, sub in expanded:
            spec_dict = sub.to_dict()
            attack_indices: Sequence[Optional[int]] = (
                range(len(sub.attacks)) if sub.attacks else [None]
            )
            payloads.extend(
                (_cell_worker,
                 (spec_dict, bench_i, attack_i, cache_root, self.use_cache,
                  label))
                for bench_i in range(len(sub.benchmarks))
                for attack_i in attack_indices
            )
            if warm_prefixes and len(sub.attacks) > 1:
                prefix_payloads.extend(
                    (_prefix_worker, (spec_dict, bench_i, cache_root))
                    for bench_i in range(len(sub.benchmarks))
                )
        on_prefix = on_cell = None
        if self.progress is not None:
            def on_prefix(outcome):
                for entry in outcome["log"]:
                    self.progress(
                        {**entry, "benchmark": "", "attack": ""}
                    )

            def on_cell(outcome):
                cell = outcome["cell"]
                for entry in cell["stages"]:
                    self.progress(
                        {
                            **entry,
                            "benchmark": cell["benchmark"],
                            "attack": cell["attack"],
                        }
                    )

        def collect(pool, tasks, done: dict, on_result) -> None:
            for index, outcome in pool.imap(tasks):
                done[index] = outcome
                if on_result is not None:
                    on_result(outcome)

        prefixes: dict[int, dict] = {}
        cells: dict[int, dict] = {}
        interrupted = False
        try:
            with WorkerPool(_call, min(self.jobs, len(payloads))) as pool:
                # Warm each variant × benchmark's shared benchmark→lock→
                # defense→synth prefix first (one task each) so the attack
                # cells below all hit the cache instead of racing to
                # recompute the same — possibly expensive — prefix.
                collect(pool, prefix_payloads, prefixes, on_prefix)
                collect(pool, payloads, cells, on_cell)
        except KeyboardInterrupt:
            # The pool is terminated; keep whatever already finished.
            interrupted = True
        prefix_outcomes = [prefixes[i] for i in sorted(prefixes)]
        outcomes = [cells[i] for i in sorted(cells)]
        self._absorb_worker_stats(prefix_outcomes + outcomes)
        return (
            [CellResult.from_dict(o["cell"]) for o in outcomes],
            [entry for o in prefix_outcomes for entry in o["log"]],
            interrupted,
        )

    def _absorb_worker_stats(self, outcomes: Sequence[Mapping]) -> None:
        """Fold worker-process cache counters into this runner's cache."""
        if self.cache is None:
            return
        for outcome in outcomes:
            for counter in ("hits", "misses", "writes"):
                setattr(
                    self.cache, counter,
                    getattr(self.cache, counter)
                    + outcome["cache"].get(counter, 0),
                )

    def report(self, run: RunResult, spec: ExperimentSpec) -> str:
        """Render ``run`` via the spec's reporter; writes ``report.out``."""
        reporter = registry.get("reporter", spec.report.format)
        text = reporter(run, spec.report)
        if spec.report.out:
            Path(spec.report.out).write_text(text + "\n")
        return text


def _call(task):
    """Pool task function: ``(worker, payload)`` -> ``worker(payload)``."""
    worker, payload = task
    return worker(payload)


def _cell_worker(payload) -> dict:
    """Top-level pool target (must be picklable): run one cell, return dicts."""
    spec_dict, bench_i, attack_i, cache_root, use_cache, strategy = payload
    spec = ExperimentSpec.from_dict(spec_dict)
    runner = Runner(workdir=cache_root, jobs=1, use_cache=use_cache)
    bench = spec.benchmarks[bench_i]
    attack = spec.attacks[attack_i] if attack_i is not None else None
    cell = runner.run_cell(spec, bench, attack)
    cell.strategy = strategy
    stats = runner.cache.stats() if runner.cache is not None else {}
    return {"cell": cell.to_dict(), "cache": stats}


def _prefix_worker(payload) -> dict:
    """Populate one benchmark's shared stage prefix into the cache."""
    spec_dict, bench_i, cache_root = payload
    spec = ExperimentSpec.from_dict(spec_dict)
    runner = Runner(workdir=cache_root, jobs=1)
    _artifacts, log = execute_stages(
        runner._build_cell_stages(spec, spec.benchmarks[bench_i], None),
        runner.cache,
    )
    return {"log": log, "cache": runner.cache.stats()}


def run_experiment(
    spec: ExperimentSpec,
    workdir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    use_cache: bool = True,
) -> RunResult:
    """One-call front door: build a :class:`Runner` and execute ``spec``."""
    return Runner(workdir=workdir, jobs=jobs, use_cache=use_cache).run(spec)
