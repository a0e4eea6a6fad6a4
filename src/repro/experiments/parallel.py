"""What a multi-process experiment run shares with its worker processes.

Every DSAssassin artifact is a sweep of independent, deterministic
trials (a trial's randomness derives from the run seed and its own key,
never from execution order).  The supervised worker pool in
:mod:`repro.experiments.pool` exploits that contract to run an
:class:`~repro.experiments.runner.ExperimentPlan` across processes
while staying observation equivalent to the serial loop in
:func:`~repro.experiments.runner.run_experiment`.  This module holds the
pieces a plan and its trials see of that execution:

* **plan sources** — workers cannot receive the plan object itself
  (trial closures generally do not pickle), so each worker rebuilds it
  from a picklable zero-argument source: a :class:`PlanHandle` naming a
  module whose ``trial_plan(**overrides)`` hook reconstructs it, or the
  pickled plan when it does pickle;
* **the partition** — :func:`shard_interleave` splits the pending trial
  indices into round-robin shards;
* **the worker context** — :func:`current_worker_context` and
  :func:`current_fault_injector` tell trial code which worker runs it
  and hand it that worker's own
  :class:`~repro.faults.injector.FaultInjector`.

See ``docs/parallel.md`` for the equivalence argument and worker-count
guidance, and ``tests/experiments/test_parallel_equivalence.py`` for the
differential serial≡parallel suite.
"""

from __future__ import annotations

import importlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentPlan

__all__ = [
    "PlanHandle",
    "WorkerContext",
    "current_fault_injector",
    "current_worker_context",
    "shard_interleave",
]


# ----------------------------------------------------------------------
# Plan sources
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanHandle:
    """A picklable recipe for rebuilding an experiment plan in a worker.

    ``PlanHandle("repro.experiments.fig09_covert", {"runs": 1})`` imports
    the module and calls its ``trial_plan(**overrides)`` hook.  Every
    experiment module exposes a ``plan_source(**overrides)`` convenience
    returning exactly this.
    """

    module: str
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __call__(self) -> ExperimentPlan:
        mod = importlib.import_module(self.module)
        return mod.trial_plan(**dict(self.overrides))


@dataclass(frozen=True)
class _PickledPlan:
    """Fallback plan source: the plan itself, serialized.

    Only viable for plans whose trial callables pickle (module-level
    functions, ``functools.partial`` of them); plans built from lambdas
    need a :class:`PlanHandle` / factory instead.
    """

    payload: bytes

    def __call__(self) -> ExperimentPlan:
        return pickle.loads(self.payload)


def _coerce_plan_source(
    plan: ExperimentPlan, plan_source: Callable[[], ExperimentPlan] | None
) -> Callable[[], ExperimentPlan]:
    if plan_source is not None:
        return plan_source
    try:
        return _PickledPlan(pickle.dumps(plan, protocol=4))
    except (pickle.PicklingError, TypeError, AttributeError, ValueError) as exc:
        raise ConfigurationError(
            f"plan {plan.name!r} does not pickle ({type(exc).__name__}: "
            f"{exc}); pass plan_source= — e.g. the experiment module's "
            "plan_source(**overrides) hook or any picklable zero-argument "
            "factory — so workers can rebuild it"
        ) from exc


# ----------------------------------------------------------------------
# The partition
# ----------------------------------------------------------------------
def shard_interleave(indices: Sequence[int], workers: int) -> list[list[int]]:
    """Round-robin partition: shard *w* gets ``indices[w::workers]``.

    Heterogeneous trial costs (e.g. fig09's window sweep, where small
    bit windows run longer) spread evenly across shards.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return [list(indices[w::workers]) for w in range(workers)]


# ----------------------------------------------------------------------
# Worker-side context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerContext:
    """What a trial can learn about the worker process executing it."""

    worker_id: int
    workers: int
    fault_injector: Any = None


_WORKER_CONTEXT: WorkerContext | None = None


def current_worker_context() -> WorkerContext | None:
    """The executing worker's context, or ``None`` outside a worker."""
    return _WORKER_CONTEXT


def current_fault_injector() -> Any:
    """The executing worker's per-process
    :class:`~repro.faults.injector.FaultInjector` (built from
    ``plan.fault_plan``), or ``None`` outside a worker / without a plan.

    Trial code that fires chaos faults on the worker pool uses
    this instead of a closed-over injector, so the fired-versus-
    acknowledged audit stays inside the worker that fired the fault.
    """
    return _WORKER_CONTEXT.fault_injector if _WORKER_CONTEXT else None
