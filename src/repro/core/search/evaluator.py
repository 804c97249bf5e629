"""Energy evaluators: serial, vectorized-batch, and process-pool.

The driver hands a whole candidate batch to one of these; how the batch is
scored — a Python loop, one vectorized model pass, or fan-out over a
worker pool — is invisible to the strategies, which keeps multi-chain
searches deterministic per seed regardless of the execution backend.

The serial evaluators wrap plain callables::

    >>> CallableEvaluator(lambda state: state * 2.0).evaluate([1, 2])
    [2.0, 4.0]
    >>> BatchCallableEvaluator(lambda batch: [s + 1 for s in batch]).evaluate([1])
    [2.0]

:class:`ProcessPoolEvaluator` fans batches out over a
:class:`~repro.utils.pool.WorkerPool`.  The scorer reaches each worker
once; worker-side state it carries (memo tables, recipe-prefix synthesis
caches) persists across batches.  A *private*
:class:`~repro.synth.cache.SynthCache` on the scorer is duplicated per
worker — each starts cold — so scorers that want the serial path's hit
rate under fan-out carry a :class:`~repro.synth.cache.SharedSynthCache`
instead; its owner reads the cross-worker totals and closes it after the
pool.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from repro.errors import SearchError
from repro.obs.trace import get_tracer
from repro.utils.pool import WorkerPool


class EnergyEvaluator:
    """Base protocol: score a batch of states, release resources on close."""

    def evaluate(self, states: Sequence) -> list[float]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any backing resources (worker pools); idempotent."""

    def __enter__(self) -> "EnergyEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CallableEvaluator(EnergyEvaluator):
    """Scores states one by one through a plain ``state -> float`` callable."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def evaluate(self, states: Sequence) -> list[float]:
        return [float(self.fn(state)) for state in states]


class BatchCallableEvaluator(EnergyEvaluator):
    """Scores the whole batch through one ``list[state] -> list[float]`` call.

    The hook for vectorized scorers such as
    :meth:`repro.core.proxy.ProxyModel.predicted_accuracy_batch`, which
    packs every candidate's GNN localities into a single forward pass.
    """

    def __init__(self, batch_fn: Callable):
        self.batch_fn = batch_fn

    def evaluate(self, states: Sequence) -> list[float]:
        states = list(states)
        values = list(self.batch_fn(states))
        if len(values) != len(states):
            raise SearchError(
                f"batch evaluator returned {len(values)} energies for "
                f"{len(states)} states"
            )
        return [float(value) for value in values]


def _score(fn: Callable, state) -> float:
    with get_tracer().span("search.eval"):
        return float(fn(state))


class ProcessPoolEvaluator(EnergyEvaluator):
    """Scores a candidate batch across a :class:`~repro.utils.pool.WorkerPool`.

    ``fn`` reaches each worker once; worker-side state (memo tables,
    recipe-prefix synthesis caches) then persists across batches.
    """

    def __init__(self, fn: Callable, jobs: int):
        if jobs < 1:
            raise SearchError(f"jobs must be >= 1, got {jobs}")
        self._pool = WorkerPool(functools.partial(_score, fn), jobs)

    def evaluate(self, states: Sequence) -> list[float]:
        states = list(states)
        if not states:
            return []
        try:
            return self._pool.map(states)
        except BaseException:
            # Ctrl-C or a failed task: kill the workers rather than wait on
            # the rest of the batch, then let the error unwind.
            self._pool.terminate()
            self._pool = None
            raise

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None


def as_evaluator(obj) -> EnergyEvaluator:
    """Coerce a callable into an evaluator; pass evaluators through."""
    if isinstance(obj, EnergyEvaluator):
        return obj
    if callable(obj):
        return CallableEvaluator(obj)
    raise SearchError(
        f"expected an EnergyEvaluator or callable, got {type(obj).__name__}"
    )
