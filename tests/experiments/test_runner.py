"""Tests for the supervised, crash-safe experiment runner."""

import time

import pytest

from repro.errors import (
    CheckpointError,
    InsufficientTrialsError,
    ReproError,
    ResumeMismatchError,
)
from repro.experiments.checkpoint import (
    STATUS_COMPLETED,
    STATUS_DEADLINE,
    STATUS_INSUFFICIENT,
    STATUS_INTERRUPTED,
    RunManifest,
)
from repro.experiments.runner import (
    EXIT_DEADLINE,
    EXIT_INSUFFICIENT,
    EXIT_INTERRUPTED,
    EXIT_OK,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ExperimentPlan,
    TrialSpec,
    Watchdog,
    execute_plan,
    run_experiment,
    require_all,
    spawn_trial_seed,
)


def _plan(trial_fns, name="demo", seed=1, min_successes=1, config=None):
    """A plan over {key: fn} with a sum-of-values finalize."""
    return ExperimentPlan(
        name=name,
        seed=seed,
        config=config or {"seed": seed},
        trials=tuple(TrialSpec(key=k, fn=fn) for k, fn in trial_fns.items()),
        finalize=lambda results: dict(results),
        min_successes=min_successes,
    )


class TestPlan:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate trial keys"):
            ExperimentPlan(
                name="dup",
                seed=0,
                config={},
                trials=(
                    TrialSpec(key="a", fn=lambda: 1),
                    TrialSpec(key="a", fn=lambda: 2),
                ),
                finalize=dict,
            )

    def test_spawn_trial_seed_is_order_independent(self):
        assert spawn_trial_seed(7, "site/x/visit/3") == spawn_trial_seed(
            7, "site/x/visit/3"
        )
        assert spawn_trial_seed(7, "a") != spawn_trial_seed(7, "b")
        assert spawn_trial_seed(7, "a") != spawn_trial_seed(8, "a")

    def test_require_all_orders_and_rejects_missing(self):
        assert require_all({"b": 2, "a": 1}, ["a", "b"], "x") == [1, 2]
        with pytest.raises(InsufficientTrialsError, match="required trial"):
            require_all({"a": 1}, ["a", "b"], "x")


class TestInMemoryRuns:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("executor", ["spawn", "threads"])
    def test_unknown_executor_rejected(self, executor, workers):
        with pytest.raises(ValueError, match="executor"):
            run_experiment(
                _plan({"a": lambda: 1}), workers=workers, executor=executor
            )

    def test_execute_plan_returns_finalized_result(self):
        result = execute_plan(_plan({"a": lambda: 1, "b": lambda: 2}))
        assert result == {"a": 1, "b": 2}

    def test_contained_failure_dropped_above_floor(self):
        def bad():
            raise ReproError("transient")

        outcome = run_experiment(_plan({"a": lambda: 1, "b": bad}))
        assert outcome.status == STATUS_COMPLETED
        assert outcome.result == {"a": 1}
        assert outcome.failed == 1

    def test_floor_violation_surfaces_insufficient(self):
        def bad():
            raise ReproError("down")

        outcome = run_experiment(_plan({"a": bad, "b": bad}, min_successes=1))
        assert outcome.status == STATUS_INSUFFICIENT
        assert outcome.exit_code == EXIT_INSUFFICIENT
        with pytest.raises(InsufficientTrialsError):
            outcome.require_result()

    def test_interrupt_is_captured_and_reraised(self):
        def boom():
            raise KeyboardInterrupt

        outcome = run_experiment(_plan({"a": lambda: 1, "b": boom}))
        assert outcome.status == STATUS_INTERRUPTED
        assert outcome.exit_code == EXIT_INTERRUPTED
        with pytest.raises(KeyboardInterrupt):
            outcome.require_result()

    def test_finalize_insufficient_maps_to_status(self):
        def finalize(results):
            raise InsufficientTrialsError("too thin")

        plan = ExperimentPlan(
            name="demo", seed=0, config={},
            trials=(TrialSpec(key="a", fn=lambda: 1),), finalize=finalize,
        )
        outcome = run_experiment(plan)
        assert outcome.status == STATUS_INSUFFICIENT


class TestWatchdog:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Watchdog(0.0)
        with pytest.raises(ValueError):
            Watchdog(-1.0)

    def test_stops_before_budget_exhaustion(self):
        def slow():
            time.sleep(0.02)
            return 1

        plan = _plan({f"t/{i}": slow for i in range(50)})
        outcome = run_experiment(plan, deadline_s=0.1)
        assert outcome.status == STATUS_DEADLINE
        assert outcome.exit_code == EXIT_DEADLINE
        assert 0 < outcome.completed < 50

    def test_deadline_run_is_resumable_with_run_dir(self, tmp_path):
        def slow():
            time.sleep(0.02)
            return 1

        plan = _plan({f"t/{i}": slow for i in range(50)})
        outcome = run_experiment(plan, run_dir=tmp_path, deadline_s=0.1)
        assert outcome.resumable
        resumed = run_experiment(plan, run_dir=tmp_path, resume=True)
        assert resumed.status == STATUS_COMPLETED
        assert resumed.resumed == outcome.completed
        assert resumed.result == {f"t/{i}": 1 for i in range(50)}


class TestCircuitBreaker:
    def test_config_validated(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_trials=0)

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record(0, False)
        assert breaker.state is BreakerState.CLOSED
        breaker.record(1, False)
        assert breaker.state is BreakerState.OPEN

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record(0, False)
        breaker.record(1, True)
        breaker.record(2, False)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, cooldown_trials=2)
        )
        breaker.record(0, False)
        assert breaker.gate(1) is not None  # cooldown skip 1
        assert breaker.gate(2) is not None  # cooldown skip 2
        assert breaker.gate(3) is None  # half-open probe admitted
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record(3, True)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, cooldown_trials=1)
        )
        breaker.record(0, False)
        breaker.gate(1)
        breaker.gate(2)
        breaker.record(2, False)
        assert breaker.state is BreakerState.OPEN
        transitions = [(e["from"], e["to"]) for e in breaker.events]
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
        ]

    def test_breaker_degrades_run_and_lands_in_manifest(self, tmp_path):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise ReproError("env down")

        trials = {f"bad/{i}": flaky for i in range(4)}
        trials.update({f"good/{i}": (lambda: 1) for i in range(4)})
        plan = _plan(trials, min_successes=1)
        outcome = run_experiment(
            plan,
            run_dir=tmp_path,
            breaker=BreakerConfig(failure_threshold=2, cooldown_trials=2),
        )
        assert outcome.status == STATUS_COMPLETED
        assert outcome.skipped > 0
        assert outcome.breaker_events
        manifest = RunManifest.load(tmp_path)
        assert manifest.breaker_events == outcome.breaker_events
        # Trials 0,1 fail -> open; 2,3 skipped; probe (good/0) closes.
        assert calls["n"] == 2


class TestCheckpointedRuns:
    def test_run_dir_holds_manifest_journal_and_payloads(self, tmp_path):
        outcome = run_experiment(
            _plan({"a": lambda: 1, "b": lambda: 2}), run_dir=tmp_path
        )
        assert outcome.status == STATUS_COMPLETED
        manifest = RunManifest.load(tmp_path)
        assert manifest.status == STATUS_COMPLETED
        assert manifest.exit_code == EXIT_OK
        assert manifest.completed == 2
        assert (tmp_path / "journal.jsonl").exists()
        assert sorted(p.name for p in (tmp_path / "trials").iterdir()) == [
            "0000.pkl", "0001.pkl",
        ]

    def test_fresh_run_refuses_existing_run_dir(self, tmp_path):
        run_experiment(_plan({"a": lambda: 1}), run_dir=tmp_path)
        with pytest.raises(CheckpointError, match="already holds a run"):
            run_experiment(_plan({"a": lambda: 1}), run_dir=tmp_path)

    def test_resume_skips_completed_trials(self, tmp_path):
        executions = []

        def make(key):
            def fn():
                executions.append(key)
                if key == "b" and len(executions) <= 2:
                    raise KeyboardInterrupt
                return key.upper()

            return fn

        plan = _plan({k: make(k) for k in ("a", "b", "c")})
        first = run_experiment(plan, run_dir=tmp_path)
        assert first.status == STATUS_INTERRUPTED
        assert executions == ["a", "b"]
        resumed = run_experiment(plan, run_dir=tmp_path, resume=True)
        assert resumed.status == STATUS_COMPLETED
        assert executions == ["a", "b", "b", "c"]
        assert resumed.result == {"a": "A", "b": "B", "c": "C"}
        assert resumed.resumed == 1

    def test_resume_does_not_retry_journaled_failures(self, tmp_path):
        calls = {"bad": 0}

        def bad():
            calls["bad"] += 1
            raise ReproError("deterministic failure")

        plan = _plan({"good": lambda: 1, "bad": bad})
        first = run_experiment(plan, run_dir=tmp_path)
        assert first.status == STATUS_COMPLETED
        assert calls["bad"] == 1
        resumed = run_experiment(plan, run_dir=tmp_path, resume=True)
        assert calls["bad"] == 1  # not retried: would fail identically
        assert resumed.failed == 1
        assert resumed.result == {"good": 1}

    def test_resume_validates_config_hash(self, tmp_path):
        run_experiment(
            _plan({"a": lambda: 1}, config={"bits": 48}), run_dir=tmp_path
        )
        with pytest.raises(ResumeMismatchError, match="config hash"):
            run_experiment(
                _plan({"a": lambda: 1}, config={"bits": 64}),
                run_dir=tmp_path,
                resume=True,
            )

    def test_resume_validates_experiment_name(self, tmp_path):
        run_experiment(_plan({"a": lambda: 1}, name="fig09"), run_dir=tmp_path)
        with pytest.raises(ResumeMismatchError, match="holds experiment"):
            run_experiment(
                _plan({"a": lambda: 1}, name="fig10"),
                run_dir=tmp_path,
                resume=True,
            )

    def test_resume_missing_dir_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no run manifest"):
            run_experiment(
                _plan({"a": lambda: 1}),
                run_dir=tmp_path / "ghost",
                resume=True,
            )

    def test_interrupt_journals_completed_prefix(self, tmp_path):
        def boom():
            raise KeyboardInterrupt

        plan = _plan({"a": lambda: 1, "b": boom, "c": lambda: 3})
        outcome = run_experiment(plan, run_dir=tmp_path)
        assert outcome.status == STATUS_INTERRUPTED
        manifest = RunManifest.load(tmp_path)
        assert manifest.status == STATUS_INTERRUPTED
        assert manifest.exit_code == EXIT_INTERRUPTED
        assert manifest.completed == 1
