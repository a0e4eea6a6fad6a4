"""The experiment workloads' plans, wrapped for measurement.

:func:`trial_plan` builds a paper figure's plan and wraps each trial so it
returns a :class:`TrialSample` (the trial's own result, its host seconds,
the counters of the devices it built and, in a pool worker, the host
speed samples taken while it ran) and times ``finalize``.  Keys,
config and hash stay those of the paper plan, and the finalized paper
result is returned unchanged inside :class:`PlanResult`.

Pool workers rebuild plans from a picklable recipe, so this module is what
:func:`plan_source` points them at: the wrapping happens inside the
worker, where the parent cannot reach.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.experiments import fig09_covert, fig11_wf_classification
from repro.experiments.parallel import PlanHandle
from repro.experiments.runner import ExperimentPlan, TrialSpec

from perfbench import speed
from perfbench.census import DeviceCensus

#: ``covert``: the Fig. 9 sweep (6 DevTLB + 4 SWQ windows) at its default
#: payload, eight runs per window — 80 trials.
COVERT_PLAN = dict(runs=8)

#: ``fingerprint``: the Fig. 11 pipeline at a size one pool run finishes
#: in about 12 s on two cores — 6 sites x 4 visits, 30 training epochs.
FINGERPRINT_PLAN = dict(sites=6, visits_per_site=4, epochs=30)

#: Pool workers for ``fingerprint``.
POOL_WORKERS = 2


@dataclass(frozen=True)
class TrialSample:
    """One trial's result with its host time and simulated work."""

    value: Any
    elapsed_s: float
    counters: dict[str, int]
    #: Speed samples of a trial run in a pool worker; empty in the
    #: parent, whose own sampler already covers the trial.
    speeds: tuple[float, ...] = ()


@dataclass(frozen=True)
class PlanResult:
    """The paper plan's finalized result plus every trial sample."""

    result: Any
    samples: dict[str, TrialSample]
    finalize_s: float


def _paper_plan(workload: str, seed: int) -> ExperimentPlan:
    if workload == "covert":
        return fig09_covert.trial_plan(seed=seed, **COVERT_PLAN)
    if workload == "fingerprint":
        return fig11_wf_classification.trial_plan(seed=seed, **FINGERPRINT_PLAN)
    raise ValueError(f"no experiment plan for workload {workload!r}")


def _sampled(fn):
    def run() -> TrialSample:
        with DeviceCensus() as census, speed.sampling() as sampler:
            start = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - start
        speeds = tuple(sampler.speeds) if sampler is not None else ()
        return TrialSample(value, elapsed, census.counters(), speeds)

    return run


def trial_plan(workload: str, seed: int) -> ExperimentPlan:
    """The workload's paper plan with sampled trials and a timed finalize.

    ``warmup`` is one empty trial per pool worker: running it starts the
    pool's workers, which import this module and so the experiment
    stack, before the timed phase.
    """
    if workload == "warmup":
        trials = tuple(
            TrialSpec(key=f"warmup/{index}", fn=_sampled(lambda: None))
            for index in range(POOL_WORKERS)
        )
        return ExperimentPlan(
            name="warmup",
            seed=seed,
            config={"warmup": seed},
            trials=trials,
            finalize=lambda results: None,
        )
    inner = _paper_plan(workload, seed)

    def finalize(results: dict[str, TrialSample]) -> PlanResult:
        start = time.perf_counter()
        result = inner.finalize({key: s.value for key, s in results.items()})
        return PlanResult(result, dict(results), time.perf_counter() - start)

    return ExperimentPlan(
        name=inner.name,
        seed=inner.seed,
        config=inner.config,
        trials=tuple(TrialSpec(t.key, _sampled(t.fn)) for t in inner.trials),
        finalize=finalize,
        min_successes=inner.min_successes,
        fault_plan=inner.fault_plan,
    )


def plan_source(workload: str, seed: int) -> PlanHandle:
    """Picklable recipe a pool worker uses to rebuild :func:`trial_plan`."""
    return PlanHandle(__name__, {"workload": workload, "seed": seed})
