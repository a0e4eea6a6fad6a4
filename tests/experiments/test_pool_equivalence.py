"""Serial ≡ pool equivalence: a plan run on the persistent worker pool
must leave the same observable artifact as the serial loop — same
finalized result bytes, same journal entries and payload pickles, same
manifest counts — and the contract must survive the pool's own failure
handling: interrupts, pool restarts between segments, worker-count
changes on resume, degradation to the inline serial path, and poisoned
trials.

The fig09 cases (3 trials) run in tier-1.  Chaos coverage (killed /
stalled / corrupting workers) is ``tests/chaos/test_pool_fault_matrix``
(marked ``pool``; run via ``scripts/run_pool_smoke.sh``).

Comparison reuses the masking rules of ``test_parallel_equivalence``:
manifest ``segments`` and per-trial ``elapsed_s`` are host noise;
journal records compare sorted by index.
"""

import functools
import os
import pickle
import signal

import pytest

from repro.errors import PoolError
from repro.experiments import fig09_covert
from repro.experiments.checkpoint import (
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
    STATUS_POISONED,
    RunManifest,
)
from repro.experiments.pool import shutdown_pools
from repro.experiments.runner import (
    EXIT_POISONED,
    ExperimentPlan,
    TrialSpec,
    run_experiment,
)
from repro.experiments.supervisor import DEGRADED_SERIAL, CostModel
from tests.experiments.test_parallel_equivalence import (
    FIG09_CONFIG,
    _assert_same_artifact,
    _fig09_plan,
    _interrupted_fig09_plan,
)


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=4)


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Each test gets (and leaves behind) a clean pool registry."""
    shutdown_pools()
    yield
    shutdown_pools()


def _kill_worker() -> None:
    """A trial that SIGKILLs whichever pool worker runs it — every
    time, so the supervisor's second strike quarantines it."""
    os.kill(os.getpid(), signal.SIGKILL)


def _poisoned_fig09_plan(k: int) -> ExperimentPlan:
    plan = _fig09_plan()
    return ExperimentPlan(
        name=plan.name,
        seed=plan.seed,
        config=plan.config,
        trials=tuple(
            TrialSpec(key=spec.key, fn=_kill_worker if index == k else spec.fn)
            for index, spec in enumerate(plan.trials)
        ),
        finalize=plan.finalize,
        min_successes=0,
    )


class TestPoolMatchesSerial:
    def test_two_workers_match_serial_byte_for_byte(self, tmp_path):
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        serial = run_experiment(_fig09_plan(), run_dir=serial_dir)
        pooled = run_experiment(
            _fig09_plan(),
            run_dir=pool_dir,
            workers=2,
            executor="pool",
            plan_source=fig09_covert.plan_source(**FIG09_CONFIG),
        )
        assert serial.status == STATUS_COMPLETED
        assert pooled.status == STATUS_COMPLETED
        assert pooled.pool is not None and pooled.pool["mode"] == "pool"
        assert _dumps(pooled.result) == _dumps(serial.result)
        _assert_same_artifact(serial_dir, pool_dir)

    def test_warm_pool_reuses_plan_and_workers(self, tmp_path):
        source = fig09_covert.plan_source(**FIG09_CONFIG)
        first = run_experiment(
            _fig09_plan(), workers=2, executor="pool", plan_source=source
        )
        second = run_experiment(
            _fig09_plan(), workers=2, executor="pool", plan_source=source
        )
        assert first.status == STATUS_COMPLETED
        assert second.status == STATUS_COMPLETED
        assert first.pool["plan_reuses"] == 0, "cold pool cannot reuse"
        assert second.pool["plan_reuses"] >= 1, (
            "warm pool must skip plan_source() for a cached fingerprint"
        )
        assert second.pool["respawns"] == 0
        assert _dumps(second.result) == _dumps(first.result)

    def test_interrupt_then_resume_across_pool_restart(self, tmp_path):
        """Interrupt a 2-worker pooled run, shut the pool down entirely
        (process-restart boundary), resume on a fresh 3-worker pool, and
        compare against an uninterrupted serial run."""
        serial_dir = tmp_path / "serial"
        reference = run_experiment(_fig09_plan(), run_dir=serial_dir)

        run_dir = tmp_path / "interrupted"
        interrupted = run_experiment(
            _interrupted_fig09_plan(1),
            run_dir=run_dir,
            workers=2,
            executor="pool",
            plan_source=functools.partial(_interrupted_fig09_plan, 1),
        )
        assert interrupted.status == STATUS_INTERRUPTED
        assert interrupted.resumable

        shutdown_pools()  # the pool (and all its workers) goes away

        resumed = run_experiment(
            _fig09_plan(),
            run_dir=run_dir,
            resume=True,
            workers=3,
            executor="pool",
            plan_source=fig09_covert.plan_source(**FIG09_CONFIG),
        )
        assert resumed.status == STATUS_COMPLETED
        assert resumed.resumed == interrupted.completed
        assert _dumps(resumed.result) == _dumps(reference.result)
        _assert_same_artifact(serial_dir, run_dir, drop=("resumed",))
        manifest = RunManifest.load(run_dir)
        assert [s["event"] for s in manifest.segments] == ["start", "resume"]

    def test_auto_degrades_to_inline_serial_when_pool_cannot_pay(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            CostModel,
            "parallel_pays",
            lambda self, *args, **kwargs: (False, "forced by test"),
        )
        serial_dir = tmp_path / "serial"
        degraded_dir = tmp_path / "degraded"
        serial = run_experiment(_fig09_plan(), run_dir=serial_dir)
        degraded = run_experiment(
            _fig09_plan(),
            run_dir=degraded_dir,
            workers=2,
            executor="auto",
            plan_source=fig09_covert.plan_source(**FIG09_CONFIG),
        )
        assert degraded.status == STATUS_COMPLETED
        assert degraded.pool["mode"] == DEGRADED_SERIAL
        assert degraded.pool["degraded"] == "forced by test"
        assert _dumps(degraded.result) == _dumps(serial.result)
        _assert_same_artifact(serial_dir, degraded_dir)


class TestPoisonedTrials:
    def test_worker_killing_trial_is_quarantined_with_exit_8(self, tmp_path):
        run_dir = tmp_path / "poisoned"
        outcome = run_experiment(
            _poisoned_fig09_plan(1),
            run_dir=run_dir,
            workers=2,
            executor="pool",
            plan_source=functools.partial(_poisoned_fig09_plan, 1),
        )
        assert outcome.status == STATUS_POISONED
        assert outcome.exit_code == EXIT_POISONED
        assert isinstance(outcome.error, PoolError)
        poisoned_key = _fig09_plan().trials[1].key
        assert outcome.pool["poisoned"] == [poisoned_key]
        assert outcome.pool["respawns"] >= 2, (
            "two strikes means at least two respawned workers"
        )
        # Everything else still ran and journaled.
        assert outcome.completed == len(_fig09_plan().trials) - 1
        manifest = RunManifest.load(run_dir)
        assert manifest.poisoned == [poisoned_key]
        assert manifest.status == STATUS_POISONED
