"""The three workloads: inputs from the seed, the timed calls, the checks.

Each workload is a :class:`Workload` with

* ``setup(lock_seed)`` — circuit generation and locking (untimed set-up),
* ``run(inputs, jobs, workdir, until)`` — the timed calls into
  ``repro``, returning the work done, the rate of each timed repetition
  and the outputs the checks need.  ``until`` is the monotonic time by
  which repetitions must end (``None``: one call); only ``almost_search``
  repeats,
* ``check(inputs, outcome)`` — correctness of the outputs (untimed),
  returning the number of failed operations and the quality figures.

Only the lock (and with it the key) comes from the workload seed; circuit
generation, proxy training and search seeds stay at the pipeline defaults,
so one seed always yields the same inputs and the same outputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int          # process fan-out of the timed (untraced) units
    fanout: int        # fan-out of the trace run's first, untraced unit
    ops_per_unit: int  # operations one unit attempts
    params: dict
    setup: Callable
    run: Callable
    check: Callable


# -- almost_search ------------------------------------------------------------

ALMOST = {
    "circuit": "c1355",
    "scale": "quick",
    "key_size": 16,
    "proxy_samples": 16,
    "proxy_epochs": 6,
    "strategy": "pt",
    "chains": 4,
    "iterations": 2,
    # Never stop early: the search always runs its full iteration budget,
    # so the work in a unit does not hinge on when a recipe first scores
    # exactly 50% (the pipeline stage stops within 0.005 of it).
    "stop_margin": -1.0,
    "search_seed": 0,
    # Timed searches per unit of an untraced run, however slow the host:
    # the run reports their median.
    "min_searches": 2,
}


def _almost_setup(lock_seed: int):
    from repro.circuits import load_iscas85
    from repro.locking import lock_rll

    netlist = load_iscas85(ALMOST["circuit"], scale=ALMOST["scale"])
    return lock_rll(netlist, key_size=ALMOST["key_size"], seed=lock_seed)


def _timed_search(proxy, config):
    """One search on empty caches: ``(result, evaluations per second)``."""
    from collections import OrderedDict
    from dataclasses import replace

    from repro.core import AlmostDefense
    from repro.synth.cache import SynthCache

    fresh = replace(
        proxy,
        synth_cache=SynthCache(max_entries=proxy.synth_cache.max_entries),
        _cache=OrderedDict(),
    )
    began = time.perf_counter()
    result = AlmostDefense(fresh, config).generate_recipe()
    return result, result.energy_evaluations / (time.perf_counter() - began)


def _forked_search(proxy, config, conn) -> None:
    conn.send(_timed_search(proxy, config))
    conn.close()


def _almost_run(locked, jobs, workdir, until) -> dict:
    """The two calls the pipeline ``defense`` stage makes.

    With ``until`` set, the search runs on the one trained proxy again and
    again while another search fits before ``until`` (at least
    ``min_searches`` times), each time in a process forked from the
    trained one: every search starts from the same process-wide memos (as
    cold as a CLI user's) and empty synthesis and accuracy caches, so each
    does the same work, and the run reports the median rate, so one burst
    of a neighbour's load on a shared host does not set it.  Without
    ``until`` (the trace run) one search runs in-process.
    """
    import multiprocessing

    from repro.core import AlmostConfig, ProxyConfig
    from repro.core.proxy import build_resyn2_proxy

    started = time.perf_counter()
    proxy = build_resyn2_proxy(
        locked,
        ProxyConfig(
            num_samples=ALMOST["proxy_samples"],
            epochs=ALMOST["proxy_epochs"],
            seed=ALMOST["search_seed"],
        ),
    )
    trained = time.perf_counter()
    config = AlmostConfig(
        sa_iterations=ALMOST["iterations"],
        seed=ALMOST["search_seed"],
        strategy=ALMOST["strategy"],
        chains=ALMOST["chains"],
        jobs=jobs,
        stop_margin=ALMOST["stop_margin"],
    )
    if until is None:
        searches = [_timed_search(proxy, config)]
    else:
        context = multiprocessing.get_context("fork")
        searches = []
        longest = 0.0
        while (len(searches) < ALMOST["min_searches"]
               or time.monotonic() + longest < until):
            began = time.monotonic()
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_forked_search, args=(proxy, config, sender)
            )
            child.start()
            sender.close()
            try:
                searches.append(receiver.recv())
            finally:
                child.join()
            longest = max(longest, time.monotonic() - began)
    searched = time.perf_counter()
    results = [result for result, _rate in searches]
    result = results[0]
    return {
        "proxy": proxy,
        "result": result,
        "repeats": results,
        "proxy_train_s": trained - started,
        "work": sum(r.energy_evaluations for r in results),
        "work_s": searched - trained,
        "rates": [rate for _result, rate in searches],
        "digest": [result.recipe.short(), result.predicted_accuracy],
        "synth_cache": dict(result.synth_cache),
    }


def _almost_check(locked, outcome: dict) -> dict:
    """Re-synthesize the recipe uncached: function kept, accuracy agrees."""
    from repro.errors import ReproError
    from repro.synth.engine import synthesize_and_map
    from repro.synth.recipe import RESYN2

    result = outcome["result"]
    problems = [
        f"search {index} returned {other.recipe.short()} at "
        f"{other.predicted_accuracy}, search 0 {result.recipe.short()} at "
        f"{result.predicted_accuracy}"
        for index, other in enumerate(outcome["repeats"])
        if (other.recipe.steps, other.predicted_accuracy)
        != (result.recipe.steps, result.predicted_accuracy)
    ]
    try:
        _netlist, mapped = synthesize_and_map(
            locked.netlist, result.recipe, verify="sim"
        )
    except ReproError as exc:
        return {"failed": 1, "problems": [f"verify: {exc}"]}
    accuracy = outcome["proxy"].predicted_accuracy_on_circuit(mapped)
    if accuracy != result.predicted_accuracy:
        problems.append(
            f"uncached accuracy {accuracy} != searched "
            f"{result.predicted_accuracy}"
        )
    _netlist, baseline = synthesize_and_map(locked.netlist, RESYN2)
    return {
        "failed": 1 if problems else 0,
        "problems": problems,
        "acc_gap": abs(result.predicted_accuracy - 0.5),
        "area_ratio": mapped.total_area() / baseline.total_area(),
    }


# -- grid_cold ------------------------------------------------------------------

GRID = {
    "benchmarks": ["c432", "c880"],
    "scale": "quick",
    "attacks": ["scope", "redundancy", "omla"],
    "locker": "rll",
    "key_size": 16,
    "recipe": "resyn2",
}


def _grid_setup(lock_seed: int):
    from repro.pipeline import (
        AttackSpec, BenchmarkSpec, ExperimentSpec, LockSpec, SynthSpec,
    )

    return ExperimentSpec(
        benchmarks=tuple(
            BenchmarkSpec(name=name, scale=GRID["scale"])
            for name in GRID["benchmarks"]
        ),
        attacks=tuple(AttackSpec(name) for name in GRID["attacks"]),
        lock=LockSpec(
            locker=GRID["locker"], key_size=GRID["key_size"], seed=lock_seed
        ),
        synth=SynthSpec(recipe=GRID["recipe"]),
        name="grid_cold",
    )


def _grid_run(spec, jobs, workdir, until) -> dict:
    """``repro grid`` into an empty artifact cache."""
    from repro.pipeline import Runner

    started = time.perf_counter()
    run = Runner(workdir=workdir, jobs=jobs).run(spec)
    elapsed = time.perf_counter() - started
    return {
        "run": run,
        "work": len(run.cells),
        "work_s": elapsed,
        "digest": sorted(
            [cell.benchmark, cell.attack, cell.predicted_key]
            for cell in run.cells
        ),
        "cell_s": sum(cell.elapsed_s for cell in run.cells),
        "stages_executed": run.executed_stages,
        "cache_writes": run.cache.get("writes", 0),
    }


def _grid_check(spec, outcome: dict) -> dict:
    run = outcome["run"]
    expected = len(spec.cells)
    problems = []
    if run.interrupted:
        problems.append("run was interrupted")
    scored = [
        cell for cell in run.cells
        if cell.accuracy is not None
        and len(cell.predicted_key) == GRID["key_size"]
    ]
    failed = expected - len(scored)
    if failed:
        problems.append(f"{failed} of {expected} cells missing or unscored")
    return {"failed": failed, "problems": problems}


# -- dip_loop -------------------------------------------------------------------

DIP = {
    "locks": [
        ["c432", "antisat", 6],
        ["c880", "antisat", 6],
        ["c432", "rll+sarlock", 6],
        ["c1355", "rll+antisat", 5],
    ],
    "scale": "quick",
    "rll_key_size": 16,
    "dip_budget": 512,
    "backend": "incremental",
}


def _dip_lock(netlist, scheme: str, width: int, index: int, key_seed: int):
    """One pinned lock: structure from ``index``, secret key from the seed.

    Insertion points, comparator inputs and the corrupted output are those
    of ``lock_scheme(..., seed=index)``; only the key bits vary with the
    workload seed (what an attacker does not know).  Letting the seed move
    the structure too makes the solver effort heavy-tailed: an RLL+SARLock
    stack on c432 ranged from 1.7 s to 18.8 s over six structure seeds.
    """
    from repro.defenses import compound, lock_antisat, lock_sarlock
    from repro.locking import lock_rll
    from repro.locking.key import Key
    from repro.utils.rng import derive_seed

    stages = []
    for stage, name in enumerate(scheme.split("+")):
        structure = derive_seed(index, "lock", stage)
        bits = key_seed * 10 + stage
        if name == "rll":
            key = Key.random(DIP["rll_key_size"], bits)
            stages.append(partial(lock_rll, key_size=len(key),
                                  seed=structure, key=key))
        elif name == "antisat":
            half = Key.random(width, bits).bits
            stages.append(partial(lock_antisat, width=width, seed=structure,
                                  key=Key(half + half)))
        else:
            stages.append(partial(lock_sarlock, width=width, seed=structure,
                                  key=Key.random(width, bits)))
    return compound(netlist, *stages)


def _dip_setup(lock_seed: int):
    from repro.circuits import load_iscas85

    return [
        _dip_lock(load_iscas85(circuit, scale=DIP["scale"]), scheme, width,
                  index, lock_seed)
        for index, (circuit, scheme, width) in enumerate(DIP["locks"])
    ]


def _dip_run(locks, jobs, workdir, until) -> dict:
    from repro.attacks import SatAttack, SatAttackConfig

    config = SatAttackConfig(
        max_iterations=DIP["dip_budget"], backend=DIP["backend"]
    )
    started = time.perf_counter()
    results = [SatAttack(config).attack(locked) for locked in locks]
    elapsed = time.perf_counter() - started
    dips = [result.details["iterations"] for result in results]
    return {
        "results": results,
        "work": sum(dips),
        "work_s": elapsed,
        "digest": [
            [count, "".join(map(str, result.predicted_bits))]
            for count, result in zip(dips, results)
        ],
    }


def _dip_check(locks, outcome: dict) -> dict:
    """Every recovered key unlocks a circuit equivalent to the true key's."""
    from repro.locking import apply_key
    from repro.locking.key import Key
    from repro.sat import check_equivalence

    problems = []
    for (circuit, scheme, _w), locked, result in zip(
        DIP["locks"], locks, outcome["results"]
    ):
        if result.details["budget_exhausted"]:
            problems.append(f"{circuit}/{scheme}: DIP budget exhausted")
            continue
        verdict = check_equivalence(
            apply_key(locked.netlist, Key(result.predicted_bits)),
            apply_key(locked.netlist, locked.key),
        )
        if not verdict.equivalent:
            problems.append(f"{circuit}/{scheme}: recovered key is wrong")
    return {"failed": len(problems), "problems": problems}


WORKLOADS = {
    "almost_search": Workload(
        "almost_search", 1, 2, 1, ALMOST, _almost_setup, _almost_run,
        _almost_check,
    ),
    "grid_cold": Workload(
        "grid_cold", 2, 2, len(GRID["benchmarks"]) * len(GRID["attacks"]),
        GRID, _grid_setup, _grid_run, _grid_check,
    ),
    "dip_loop": Workload(
        "dip_loop", 1, 1, len(DIP["locks"]), DIP, _dip_setup, _dip_run,
        _dip_check,
    ),
}
