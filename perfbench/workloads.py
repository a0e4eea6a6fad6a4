"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` and runs
one fixed-size *unit* of work per :meth:`unit` call, returning a
:class:`Unit`: host seconds, the same at nominal host speed, simulated
work, a digest of what the attacker observes, and the checks the output
failed.  Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from perfbench import speed
from perfbench.census import DeviceCensus

if TYPE_CHECKING:  # the experiment stack loads only for its workloads
    from perfbench.plans import PlanResult

#: Session latency limit: the service benchmark's p99 ceiling
#: (``P99_CEILING_CYCLES`` in ``benchmarks/test_bench_service.py``).
SLO_CYCLES = 5_000_000


@dataclass
class Unit:
    """One measured unit of work."""

    elapsed_s: float
    #: ``elapsed_s`` at nominal host speed (see ``perfbench/speed.py``).
    nominal_s: float
    digest: str
    attempted: int
    failed: int
    problems: list[str]
    counters: dict[str, int]
    #: Simulated metrics; they repeat exactly at a fixed seed.
    simulated: dict[str, float]
    #: Host seconds of each trial (experiment workloads).
    trial_times: list[float] = field(default_factory=list)
    #: Layer data the unit already has: runner, pool and service books.
    layers: dict[str, Any] = field(default_factory=dict)


def _timed(
    tracer: Any, fn: Callable[[], Any]
) -> tuple[Any, float, list[float]]:
    """*fn*'s value, its host seconds and the speed samples taken here."""
    with speed.sampling() as sampler:
        start = time.perf_counter()
        value = fn() if tracer is None else tracer.span("bench.unit", fn)
        elapsed = time.perf_counter() - start
    return value, elapsed, sampler.speeds if sampler is not None else []


class _Experiment:
    """An experiment plan run through ``run_experiment``."""

    name = ""
    operation = "trial"
    workers = 1

    def setup(self, seed: int) -> None:
        from perfbench import plans
        from repro.experiments.runner import run_experiment

        self._run_experiment = run_experiment
        self.plan = plans.trial_plan(self.name, seed)

    def close(self) -> None:
        pass

    def _run(self, serial: bool) -> Any:
        return self._run_experiment(self.plan)

    def unit(self, tracer: Any = None, serial: bool = False) -> Unit:
        outcome, elapsed, speeds = _timed(tracer, lambda: self._run(serial))
        problems = []
        if outcome.status != "completed":
            problems.append(f"run ended {outcome.status}: {outcome.error}")
        planned = outcome.result
        samples = planned.samples if planned is not None else {}
        counters: Counter[str] = Counter()
        for sample in samples.values():
            counters.update(sample.counters)
        trial_times = [sample.elapsed_s for sample in samples.values()]
        # Pool workers sampled their own cores; weigh every sample alike.
        speeds = speeds + [s for sample in samples.values() for s in sample.speeds]
        workers = 1 if serial else self.workers
        pool = outcome.pool or {}
        if pool.get("mode", "pool") != "pool":
            problems.append(f"pool degraded to serial: {pool.get('degraded')}")
        return Unit(
            elapsed_s=elapsed,
            nominal_s=elapsed * speed.mean_speed(speeds),
            digest=self.digest(planned) if planned is not None else "",
            attempted=len(self.plan.trials),
            failed=len(self.plan.trials) - len(samples),
            problems=problems,
            counters=counters,
            simulated=self.simulated(planned.result) if planned is not None else {},
            trial_times=trial_times,
            layers={
                "workers": workers,
                "finalize_s": planned.finalize_s if planned is not None else 0.0,
                "pool_respawns": pool.get("respawns", 0),
                "pool_plan_reuses": pool.get("plan_reuses", 0),
            },
        )

    def digest(self, planned: PlanResult) -> str:
        raise NotImplementedError

    def simulated(self, result: Any) -> dict[str, float]:
        raise NotImplementedError


class Covert(_Experiment):
    """``fig09_covert`` sweep, serial and in-process."""

    name = "covert"

    def digest(self, planned: PlanResult) -> str:
        # Per trial: the decoded bits, the raw rate and the bit error rate.
        h = hashlib.sha256()
        for key, sample in planned.samples.items():
            channel = sample.value
            h.update(key.encode())
            h.update(np.asarray(channel.received, dtype=np.uint8).tobytes())
            h.update(repr((channel.raw_bps, channel.error_rate)).encode())
        return h.hexdigest()

    def simulated(self, result: Any) -> dict[str, float]:
        peak = result.best("devtlb")
        return {
            "devtlb_peak_kbps": peak.true_bps / 1e3,
            "devtlb_ber": peak.error_rate,
        }


class Fingerprint(_Experiment):
    """``fig11_wf_classification``, small, on the two-worker pool."""

    name = "fingerprint"

    def setup(self, seed: int) -> None:
        from perfbench import plans

        super().setup(seed)
        self.workers = plans.POOL_WORKERS
        self.source = plans.plan_source(self.name, seed)
        # Start the pool's workers (and their imports) before timing.
        warm = self._run_experiment(
            plans.trial_plan("warmup", seed),
            workers=self.workers,
            executor="pool",
            plan_source=plans.plan_source("warmup", seed),
        )
        if warm.status != "completed":
            raise RuntimeError(f"pool warm-up ended {warm.status}: {warm.error}")

    def close(self) -> None:
        from repro.experiments.pool import shutdown_pools

        shutdown_pools()

    def _run(self, serial: bool) -> Any:
        if serial:
            return self._run_experiment(self.plan)
        return self._run_experiment(
            self.plan,
            workers=self.workers,
            executor="pool",
            plan_source=self.source,
        )

    def digest(self, planned: PlanResult) -> str:
        result = planned.result
        matrix = np.asarray(result.matrix, dtype=np.int64)
        h = hashlib.sha256(repr((result.bilstm_accuracy, matrix.shape)).encode())
        h.update(matrix.tobytes())
        return h.hexdigest()

    def simulated(self, result: Any) -> dict[str, float]:
        return {"top1_accuracy": result.bilstm_accuracy}


class Service:
    """``AttackService`` serving an open-loop schedule."""

    operation = "session"

    def __init__(
        self,
        name: str,
        config: dict[str, Any],
        load: dict[str, Any],
        expected_status: str,
    ) -> None:
        self.name = name
        self._config = config
        self._load = load
        self.expected_status = expected_status

    def setup(self, seed: int) -> None:
        from repro.service import (
            AttackService,
            LoadConfig,
            ServiceConfig,
            build_schedule,
        )

        self.config = ServiceConfig(seed=seed, **self._config)
        self.schedule = build_schedule(LoadConfig(seed=seed + 1, **self._load))
        self._service_type = AttackService
        # Construction is part of set-up; each unit serves a fresh
        # instance because an AttackService runs once.
        AttackService(self.config)

    def close(self) -> None:
        pass

    def unit(self, tracer: Any = None, serial: bool = False) -> Unit:
        service = self._service_type(self.config)
        with DeviceCensus() as census:
            report, elapsed, speeds = _timed(
                tracer, lambda: service.run(self.schedule)
            )
        acct = report.accounting
        problems = []
        if not acct.balances():
            problems.append(f"books do not balance: {acct.to_json()}")
        if report.status != self.expected_status:
            problems.append(
                f"status {report.status}, expected {self.expected_status}"
            )
        if report.unacknowledged_faults:
            problems.append(f"unacknowledged faults: {report.unacknowledged_faults}")
        # Per-session latencies are not in the report; the SLO needs them.
        within = sum(1 for cycles in service._latencies if cycles <= SLO_CYCLES)
        digest = hashlib.sha256(
            json.dumps(report.to_json(), sort_keys=True).encode()
        ).hexdigest()
        return Unit(
            elapsed_s=elapsed,
            nominal_s=elapsed * speed.mean_speed(speeds),
            digest=digest,
            attempted=acct.offered,
            failed=acct.failed_total + acct.quarantined,
            problems=problems,
            counters=census.counters(),
            simulated={
                "session_latency_p50_cycles": report.latency_cycles["p50"],
                "session_latency_p99_cycles": report.latency_cycles["p99"],
                "slo_attainment": within / acct.offered,
            },
            layers={
                "offered": acct.offered,
                "rejected": dict(acct.rejected),
                "shed": acct.shed,
                "mode_transitions": len(report.mode_transitions),
                "queue_high_water": report.lane_stats["queue_high_water"],
            },
        )


def build(name: str) -> Any:
    """A fresh workload object by name."""
    if name == "covert":
        return Covert()
    if name == "fingerprint":
        return Fingerprint()
    if name == "service-steady":
        from repro.service.config import TenantPolicy

        # The 10^5-session service benchmark's fleet and tenants, just
        # under capacity: every session completes.
        return Service(
            name,
            config=dict(
                lanes=32,
                tenant_policy=TenantPolicy(
                    device_cycle_quota=10**11, max_in_flight=512
                ),
            ),
            load=dict(sessions=2_000, tenants=32, mean_interarrival_cycles=20_000.0),
            expected_status="completed",
        )
    if name == "service-overload":
        # Four lanes and the default tenant policy under a 10% stampede:
        # the controller walks the overload ladder and the run ends
        # overloaded.  Far harder overload (a 2k-cycle gap) mostly rejects
        # and sheds, never opens the circuit and ends in under a second,
        # so it is not used.
        return Service(
            name,
            config=dict(lanes=4),
            load=dict(
                sessions=6_000,
                tenants=8,
                mean_interarrival_cycles=30_000.0,
                stampede_fraction=0.1,
            ),
            expected_status="overloaded",
        )
    raise KeyError(name)


NAMES = ("covert", "service-steady", "service-overload", "fingerprint")
