"""In-process layer tracing: wrapper spans patched onto ``repro``.

The benchmark times layers from outside the program.  :func:`install`
replaces each public layer function (or method) in :data:`TARGETS` with a
wrapper that opens a span, and rebinds every ``repro.*`` module attribute
that still holds the original function — so ``from repro.synth.engine
import apply_recipe`` in :mod:`repro.attacks.scope` sees the wrapper too.
Nothing under ``src/`` changes.

Spans nest on one in-process stack.  A span's *self time* is its duration
minus the time of its child spans; the per-layer ``busy_s`` metrics are
sums of self time, so they partition the traced wall time.  Spans are only
recorded while :meth:`Tracer.recording` is open (the timed region).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable

#: transform name -> metric-safe pass name
PASS_NAMES = {
    "rewrite": "rewrite",
    "rewrite -z": "rewrite_z",
    "refactor": "refactor",
    "refactor -z": "refactor_z",
    "resub": "resub",
    "resub -z": "resub_z",
    "balance": "balance",
}


class _Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters: dict[str, float] = {}


class Tracer:
    """Aggregating span recorder: name -> calls, self time, counters."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._child_time: list[float] = []  # one slot per open span
        self._active = False
        self.covered_s = 0.0                # time inside top-level spans

    @contextmanager
    def recording(self):
        self._active = True
        try:
            yield self
        finally:
            self._active = False

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def count(self, name: str, key: str, amount: float) -> None:
        counters = self._stat(name).counters
        counters[key] = counters.get(key, 0) + amount

    def wrap(self, fn: Callable, namer, before=None, after=None) -> Callable:
        """Span wrapper around ``fn``.

        ``namer(args, kwargs)`` names the span (a string is used as is);
        ``before(args, kwargs)`` returns state handed to
        ``after(tracer, name, state, args, kwargs, result)``, both called
        outside the span's own timing.
        """
        tracer = self
        child_time = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            state = before(args, kwargs) if before is not None else None
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = child_time.pop()
                stat = tracer._stat(name)
                stat.calls += 1
                stat.self_s += elapsed - children
                if child_time:
                    child_time[-1] += elapsed
                else:
                    tracer.covered_s += elapsed
            if after is not None:
                after(tracer, name, state, args, kwargs, result)
            return result

        return wrapper


# -- hooks ------------------------------------------------------------------

def _pass_name(args, kwargs):
    name = args[1] if len(args) > 1 else kwargs["name"]
    return "synth." + PASS_NAMES.get(name, name.replace(" ", "_"))


def _ands_before(args, kwargs):
    return args[0].num_ands()


def _ands_after(tracer, name, ands_in, args, kwargs, result):
    tracer.count(name, "ands_in", ands_in)


def _recipe_after(tracer, name, ands_in, args, kwargs, result):
    tracer.count(name, "ands_in", ands_in)
    tracer.count(name, "ands_out", result.num_ands())


def _solver_before(args, kwargs):
    stats = args[0].stats
    return stats["conflicts"], stats["propagations"]


def _solver_after(tracer, name, before, args, kwargs, result):
    stats = args[0].stats
    tracer.count(name, "conflicts", stats["conflicts"] - before[0])
    tracer.count(name, "propagations", stats["propagations"] - before[1])


def _patterns_after(tracer, name, state, args, kwargs, result):
    patterns = args[-1] if args else kwargs["patterns"]
    tracer.count(name, "patterns", int(patterns.shape[0]))


def _graphs_after(tracer, name, state, args, kwargs, result):
    tracer.count(name, "graphs", len(result))


def _train_after(tracer, name, state, args, kwargs, result):
    graphs = args[1] if len(args) > 1 else kwargs["graphs"]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    if config is None:
        from repro.ml.train import TrainConfig

        config = TrainConfig()
    tracer.count(name, "graphs", len(graphs) * config.epochs)


def _predict_after(tracer, name, state, args, kwargs, result):
    tracer.count(name, "graphs", int(args[1].num_graphs))


#: (module, attribute path, span name or namer, before hook, after hook):
#: the layer entry points the three workloads reach inside their timed
#: calls (traced runs use ``jobs=1``, so only the serial scoring path).
TARGETS = (
    ("repro.synth.engine", "apply_transform", _pass_name,
     _ands_before, _ands_after),
    ("repro.synth.engine", "apply_recipe", "synth.recipe",
     _ands_before, _recipe_after),
    ("repro.synth.engine", "synthesize_and_map", "synth.flow", None, None),
    ("repro.aig.build", "aig_from_netlist", "aig.convert", None, None),
    ("repro.aig.export", "netlist_from_aig", "aig.convert", None, None),
    ("repro.mapping.mapper", "map_aig", "mapping.map", None, None),
    ("repro.attacks.scope", "ScopeAttack.attack", "attacks.scope",
     None, None),
    ("repro.attacks.redundancy", "RedundancyAttack.attack",
     "attacks.redundancy", None, None),
    ("repro.attacks.omla", "OmlaAttack.generate_training_data",
     "attacks.omla", None, None),
    ("repro.attacks.omla", "OmlaAttack.train", "attacks.omla", None, None),
    ("repro.attacks.omla", "OmlaAttack.attack", "attacks.omla", None, None),
    ("repro.attacks.subgraph", "extract_localities", "attacks.localities",
     None, _graphs_after),
    ("repro.attacks.sat_attack", "SatAttack.attack", "attacks.sat",
     None, None),
    ("repro.sat.solver", "CdclSolver.solve", "sat.solve",
     _solver_before, _solver_after),
    ("repro.sat.cnf", "tseitin_netlist", "sat.cnf", None, None),
    ("repro.sat.cnf", "tseitin_aig", "sat.cnf", None, None),
    ("repro.locking.key", "KeyOracle.__call__", "locking.oracle",
     None, _patterns_after),
    ("repro.locking.key", "KeyOracle.with_candidates", "locking.oracle",
     None, _patterns_after),
    ("repro.locking.rll", "lock_rll", "locking.lock", None, None),
    ("repro.locking.relock", "relock", "locking.lock", None, None),
    ("repro.circuits.iscas85", "load_iscas85", "circuits.load", None, None),
    ("repro.ml.train", "train_classifier", "ml.train", None, _train_after),
    ("repro.ml.gnn", "GinClassifier.predict", "ml.predict",
     None, _predict_after),
    ("repro.core.search.driver", "run_search", "core.search", None, None),
    ("repro.core.proxy", "build_resyn2_proxy", "core.proxy.build",
     None, None),
    ("repro.core.proxy", "ProxyModel.predicted_accuracy_batch",
     "core.proxy.score", None, None),
    ("repro.core.proxy", "ProxyModel._synthesize", "core.proxy.synth",
     None, None),
    ("repro.core.almost", "AlmostDefense.generate_recipe", "core.almost",
     None, None),
    ("repro.pipeline.runner", "Runner.run", "pipeline.run", None, None),
    ("repro.pipeline.runner", "Runner.run_cell", "pipeline.cell",
     None, None),
    ("repro.pipeline.runner", "execute_stages", "pipeline.stages",
     None, None),
    ("repro.pipeline.cache", "ArtifactCache.get", "pipeline.cache",
     None, None),
    ("repro.pipeline.cache", "ArtifactCache.put", "pipeline.cache",
     None, None),
)


#: import sites that must end up wrapped, or layer time would silently land
#: in the caller's self time
REQUIRED_SITES = (
    "repro.attacks.scope.map_aig",
    "repro.attacks.scope.apply_recipe",
    "repro.attacks.omla.train_classifier",
    "repro.attacks.omla.synthesize_and_map",
    "repro.core.proxy.synthesize_and_map",
    "repro.core.almost.run_search",
)


def install(tracer: Tracer) -> None:
    """Patch every target at every import site.

    Module-level functions are rebound in every loaded ``repro`` module
    whose attribute is the original object (each import site); methods are
    rebound on their class.  Call after the workload's modules are
    imported, so every import site already exists.
    """
    sites: set[str] = set()
    for module_name, path, namer, before, after in TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(original, namer, before, after)
        if owners:
            setattr(owner, attr, wrapper)
            continue
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                sites.add(f"{name}.{attr}")
    missing = sorted(set(REQUIRED_SITES) - sites)
    if missing:
        raise RuntimeError(f"tracing did not reach {missing}")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flatten the span aggregates into the benchmark's layer metrics."""
    stats = tracer.stats

    def get(name: str) -> _Stat:
        return stats.get(name) or _Stat()

    out: dict[str, float] = {}
    for pass_name in PASS_NAMES.values():
        stat = get(f"synth.{pass_name}")
        ands = stat.counters.get("ands_in", 0)
        out[f"synth.{pass_name}.calls"] = stat.calls
        out[f"synth.{pass_name}.busy_s"] = stat.self_s
        out[f"synth.{pass_name}.us_per_and"] = (
            stat.self_s * 1e6 / ands if ands else 0.0
        )
    recipe = get("synth.recipe")
    out["synth.ands_in"] = recipe.counters.get("ands_in", 0)
    out["synth.ands_out"] = recipe.counters.get("ands_out", 0)
    out["synth.recipe.busy_s"] = recipe.self_s
    solve = get("sat.solve")
    out["sat.solve.calls"] = solve.calls
    out["sat.solve.busy_s"] = solve.self_s
    out["sat.conflicts"] = solve.counters.get("conflicts", 0)
    propagations = solve.counters.get("propagations", 0)
    out["sat.propagations_per_s"] = (
        propagations / solve.self_s if solve.self_s else 0.0
    )
    out["sat.cnf.busy_s"] = get("sat.cnf").self_s
    oracle = get("locking.oracle")
    out["locking.oracle.busy_s"] = oracle.self_s
    out["locking.oracle.patterns"] = oracle.counters.get("patterns", 0)
    for attack in ("scope", "redundancy", "omla", "sat"):
        out[f"attacks.{attack}.busy_s"] = get(f"attacks.{attack}").self_s
    localities = get("attacks.localities")
    out["attacks.localities.busy_s"] = localities.self_s
    out["attacks.localities.graphs"] = localities.counters.get("graphs", 0)
    for phase in ("train", "predict"):
        stat = get(f"ml.{phase}")
        graphs = stat.counters.get("graphs", 0)
        out[f"ml.{phase}.busy_s"] = stat.self_s
        out[f"ml.{phase}.graphs_per_s"] = (
            graphs / stat.self_s if stat.self_s else 0.0
        )
    for layer in ("mapping.map", "aig.convert"):
        stat = get(layer)
        out[f"{layer}.calls"] = stat.calls
        out[f"{layer}.busy_s"] = stat.self_s
    out["core.search.busy_s"] = get("core.search").self_s
    out["core.search.synthesized"] = get("core.proxy.synth").calls
    pipeline = ("pipeline.run", "pipeline.cell", "pipeline.stages",
                "pipeline.cache")
    out["pipeline.busy_s"] = sum(get(name).self_s for name in pipeline)
    reported = {
        *(f"synth.{pass_name}" for pass_name in PASS_NAMES.values()),
        "synth.recipe", "sat.solve", "sat.cnf", "locking.oracle",
        "attacks.scope", "attacks.redundancy", "attacks.omla", "attacks.sat",
        "attacks.localities", "ml.train", "ml.predict", "mapping.map",
        "aig.convert", "core.search", *pipeline,
    }
    # Self time of the remaining spans (locking, circuit generation, proxy
    # glue), so the busy_s metrics add up to the traced time.
    out["trace.other_busy_s"] = sum(
        stat.self_s for name, stat in stats.items() if name not in reported
    )
    return out
