"""Supervised, crash-safe, resumable experiment execution.

Every experiment module exposes a ``trial_plan(**kwargs)`` hook that
enumerates its work as independent, deterministic trials plus a
``finalize`` step that assembles the module's result object.  This
module executes such a plan under supervision:

* **Checkpointing** — with a run directory, every finished trial is
  journaled (pickled payload + JSONL record, all atomic) before the next
  trial starts; :func:`run_experiment` with ``resume=True`` replays the
  journal, validates the manifest's config hash, skips completed trials,
  and continues.  Because each trial derives its randomness only from
  the run seed and its own key (never from execution order), a resumed
  run produces results identical to an uninterrupted one.
* **Watchdog** — a soft wall-clock deadline: when the remaining budget
  drops below the longest trial seen so far, the run checkpoints and
  stops cleanly with :data:`EXIT_DEADLINE` instead of being killed
  mid-trial by an external timeout.
* **Circuit breaker** — after ``failure_threshold`` *consecutive*
  contained failures the breaker opens and trials are skipped for
  ``cooldown_trials``; then one half-open probe trial runs.  Success
  closes the breaker, failure re-opens it.  A persistently broken
  environment thus burns a bounded number of trials and the run degrades
  to a partial-but-valid artifact (still subject to the plan's success
  floor).  Every transition is recorded in the run manifest.

Exit codes (also used by ``python -m repro.experiments``):

====================  =====================================================
:data:`EXIT_OK` (0)            artifact produced
``1``                          unexpected error (programming bug)
``2``                          command-line usage error (argparse)
:data:`EXIT_INSUFFICIENT` (3)  fewer successes than the plan's floor
:data:`EXIT_REPRO` (4)         a :class:`~repro.errors.ReproError` outside
                               trial containment (e.g. during finalize)
:data:`EXIT_CONFIG_MISMATCH` (5)  ``--resume`` config hash mismatch
:data:`EXIT_INVARIANT` (6)     a runtime invariant tripped: model state
                               (or pool bookkeeping) untrusted
:data:`EXIT_POISONED` (8)      the worker pool quarantined poison trials
                               (they repeatedly killed their workers);
                               the rest of the artifact is journaled
:data:`EXIT_OVERLOAD` (9)      the always-on service (``repro.service``)
                               finished degraded: the overload controller
                               opened the admission circuit and the
                               completion floor was missed — offered load
                               exceeded what the fleet could serve
:data:`EXIT_DEADLINE` (75)     soft deadline hit after checkpointing
                               (EX_TEMPFAIL: re-run with ``--resume``)
:data:`EXIT_INTERRUPTED` (130) SIGINT/SIGTERM after checkpointing
                               (re-run with ``--resume``)
====================  =====================================================
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.errors import (
    CheckpointError,
    InsufficientTrialsError,
    InvariantViolation,
    ReproError,
    ResumeMismatchError,
)
from repro.experiments.checkpoint import (
    STATUS_COMPLETED,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_INSUFFICIENT,
    STATUS_INTERRUPTED,
    STATUS_INVARIANT,
    STATUS_POISONED,
    STATUS_RUNNING,
    CheckpointJournal,
    RunManifest,
    config_hash,
    fault_plan_id,
    git_describe,
)
from repro.experiments.guard import TrialFailure, run_guarded_trials

EXIT_OK = 0
EXIT_INSUFFICIENT = 3
EXIT_REPRO = 4
EXIT_CONFIG_MISMATCH = 5
EXIT_INVARIANT = 6  # a runtime invariant tripped: model state untrusted
EXIT_POISONED = 8  # pool quarantined worker-killing trials; rest journaled
EXIT_OVERLOAD = 9  # service finished overloaded: circuit open, floor missed
EXIT_DEADLINE = 75  # EX_TEMPFAIL: partial, resumable
EXIT_INTERRUPTED = 130  # 128 + SIGINT, conventionally

_STATUS_EXIT = {
    STATUS_COMPLETED: EXIT_OK,
    STATUS_INSUFFICIENT: EXIT_INSUFFICIENT,
    STATUS_FAILED: EXIT_REPRO,
    STATUS_INVARIANT: EXIT_INVARIANT,
    STATUS_POISONED: EXIT_POISONED,
    STATUS_DEADLINE: EXIT_DEADLINE,
    STATUS_INTERRUPTED: EXIT_INTERRUPTED,
}

#: ``GuardedRun.stop_reason`` / bypass reasons used by the supervisor.
STOP_DEADLINE = "deadline"
SKIP_RESUMED = "resumed"
SKIP_BREAKER = "breaker-open"


# ----------------------------------------------------------------------
# The sanctioned host clock
# ----------------------------------------------------------------------
# This module is the single place in ``repro`` allowed to read the host
# clock (enforced by the DET002 lint rule): manifests, watchdogs, and
# CLI timing all route through these two helpers, so tests can stamp
# deterministic timestamps by overriding them.
_wall_clock: Callable[[], float] = time.time
_monotonic_clock: Callable[[], float] = time.monotonic


def wall_clock() -> float:
    """Seconds since the epoch, via the injectable host clock."""
    return _wall_clock()


def monotonic_clock() -> float:
    """Monotonic seconds, via the injectable host clock."""
    return _monotonic_clock()


@contextlib.contextmanager
def override_clocks(
    wall: Callable[[], float] | None = None,
    monotonic: Callable[[], float] | None = None,
) -> Iterator[None]:
    """Temporarily replace the host clocks (tests only).

    Everything that stamps wall time (manifest segments, CLI timing) or
    measures elapsed time (watchdog, trial durations) observes the
    override, so a test can produce byte-identical manifests::

        with override_clocks(wall=lambda: 0.0):
            manifest.add_segment("start")   # {"time": 0.0, ...}
    """
    global _wall_clock, _monotonic_clock
    previous = (_wall_clock, _monotonic_clock)
    if wall is not None:
        _wall_clock = wall
    if monotonic is not None:
        _monotonic_clock = monotonic
    try:
        yield
    finally:
        _wall_clock, _monotonic_clock = previous


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialSpec:
    """One independent unit of experiment work.

    *key* must be stable across processes (it addresses the checkpoint),
    and *fn* must be deterministic given the plan configuration — its
    randomness may depend on the run seed and the key, never on how many
    trials ran before it.
    """

    key: str
    fn: Callable[[], Any]


@dataclass(frozen=True)
class ExperimentPlan:
    """An experiment decomposed into checkpointable trials.

    *finalize* receives an ordered ``{key: result}`` of the successful
    trials (plan order, failures absent) and builds the module's result
    object; it should raise :class:`InsufficientTrialsError` when the
    surviving trials cannot support a valid artifact.
    """

    name: str
    seed: int
    config: dict[str, Any]
    trials: tuple[TrialSpec, ...]
    finalize: Callable[[dict[str, Any]], Any]
    min_successes: int = 1
    fault_plan: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", tuple(self.trials))
        keys = [t.key for t in self.trials]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate trial keys in plan {self.name}: {dupes}")

    @property
    def hash(self) -> str:
        """Hash of the configuration (what ``--resume`` validates)."""
        return config_hash(self.config)


def spawn_trial_seed(run_seed: int, key: str) -> int:
    """A per-trial 63-bit seed derived from the run seed and trial key.

    Order-independent by construction: trial RNG streams are identical
    whether the sweep runs uninterrupted or resumes after a crash.
    """
    digest = hashlib.sha256(f"{run_seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ----------------------------------------------------------------------
# Supervision: watchdog + circuit breaker
# ----------------------------------------------------------------------
class Watchdog:
    """Soft wall-clock deadline for a trial batch.

    Rather than letting an external timeout SIGKILL the process mid-trial
    (losing the in-flight trial and risking whatever the journal was
    about to write), the watchdog stops the batch while there is still
    time: once the remaining budget is smaller than the longest completed
    trial, the next trial is assumed not to fit.
    """

    def __init__(self, budget_s: float | None) -> None:
        if budget_s is not None and budget_s <= 0:
            raise ValueError(f"deadline must be positive or None, got {budget_s}")
        self.budget_s = budget_s
        self._start = monotonic_clock()
        self._longest_trial_s = 0.0

    def note_trial(self, elapsed_s: float) -> None:
        """Record one trial's duration (sets the stop margin)."""
        self._longest_trial_s = max(self._longest_trial_s, elapsed_s)

    def check(self) -> str | None:
        """A stop reason when the budget nears exhaustion, else ``None``."""
        if self.budget_s is None:
            return None
        remaining = self.budget_s - (monotonic_clock() - self._start)
        if remaining <= self._longest_trial_s:
            return STOP_DEADLINE
        return None


class BreakerState(str, enum.Enum):
    """Circuit-breaker states (classic closed/open/half-open)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class BreakerConfig:
    """Circuit-breaker tuning."""

    failure_threshold: int = 3
    cooldown_trials: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_trials < 1:
            raise ValueError(
                f"cooldown_trials must be >= 1, got {self.cooldown_trials}"
            )


class CircuitBreaker:
    """Consecutive-failure circuit breaker over a trial sequence.

    ``CLOSED`` runs everything.  *failure_threshold* consecutive
    contained failures open the breaker; while ``OPEN`` the next
    *cooldown_trials* trials are skipped (they would almost certainly
    burn budget on the same broken environment), then the breaker goes
    ``HALF_OPEN`` and lets one probe trial through.  A successful probe
    closes the breaker; a failed probe re-opens it for another cooldown.
    """

    def __init__(self, config: BreakerConfig | None = None) -> None:
        self.config = config or BreakerConfig()
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.skipped = 0
        self.events: list[dict[str, Any]] = []
        self._cooldown_left = 0

    def _transition(self, index: int, state: BreakerState, reason: str) -> None:
        self.events.append(
            {
                "trial": index,
                "from": self.state.value,
                "to": state.value,
                "reason": reason,
            }
        )
        self.state = state

    def gate(self, index: int) -> str | None:
        """Skip reason for trial *index*, or ``None`` to run it."""
        if self.state is BreakerState.OPEN:
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                self.skipped += 1
                return SKIP_BREAKER
            self._transition(
                index, BreakerState.HALF_OPEN, "cooldown elapsed; probing"
            )
        return None

    def record(self, index: int, success: bool) -> None:
        """Feed one executed trial's outcome into the breaker."""
        if success:
            if self.state is BreakerState.HALF_OPEN:
                self._transition(index, BreakerState.CLOSED, "probe succeeded")
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._transition(index, BreakerState.OPEN, "probe failed")
            self._cooldown_left = self.config.cooldown_trials
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._transition(
                index,
                BreakerState.OPEN,
                f"{self.consecutive_failures} consecutive failures",
            )
            self._cooldown_left = self.config.cooldown_trials


# ----------------------------------------------------------------------
# The supervised run
# ----------------------------------------------------------------------
@dataclass
class RunOutcome:
    """Everything a caller (CLI or test) needs about one supervised run."""

    plan: ExperimentPlan
    status: str
    result: Any = None
    error: Exception | None = None
    run_dir: Path | None = None
    manifest: RunManifest | None = None
    completed: int = 0
    failed: int = 0
    resumed: int = 0
    skipped: int = 0
    breaker_events: list[dict[str, Any]] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Pool-executor telemetry (respawns, plan reuses, degradation,
    #: poisoned trial keys) — in-memory only, ``None`` off the pool path.
    pool: dict[str, Any] | None = None

    @property
    def exit_code(self) -> int:
        """The documented process exit code for this outcome."""
        return _STATUS_EXIT.get(self.status, 1)

    @property
    def resumable(self) -> bool:
        """Whether ``--resume`` on the run directory would make progress."""
        return self.run_dir is not None and self.status in (
            STATUS_DEADLINE,
            STATUS_INTERRUPTED,
        )

    def require_result(self) -> Any:
        """The finalized result, re-raising the captured failure mode.

        This is what the modules' plain ``run()`` entry points call: an
        in-memory run behaves exactly like pre-runner code — errors
        raise, interrupts propagate.
        """
        if self.status == STATUS_COMPLETED:
            return self.result
        if self.status == STATUS_INTERRUPTED:
            raise KeyboardInterrupt
        if self.error is not None:
            raise self.error
        raise ReproError(
            f"{self.plan.name}: run ended with status {self.status!r} "
            "and no result"
        )


def prepare_checkpoint(
    plan: ExperimentPlan,
    run_dir: Path,
    resume: bool,
) -> tuple[RunManifest, CheckpointJournal, dict[str, Any], set[str]]:
    """Open (or resume) the checkpointed state of *run_dir* for *plan*.

    Returns ``(manifest, journal, resumed_results, resumed_failed)`` with
    the manifest already stamped ``running`` and saved.  Shared by the
    serial loop below and the worker pool in
    :mod:`repro.experiments.pool`, so both produce (and validate)
    identical on-disk state.
    """
    resumed_results: dict[str, Any] = {}
    resumed_failed: set[str] = set()
    if resume:
        manifest = RunManifest.load(run_dir)
        if manifest.experiment != plan.name:
            raise ResumeMismatchError(
                f"run dir {run_dir} holds experiment "
                f"{manifest.experiment!r}, not {plan.name!r}"
            )
        if manifest.config_hash != plan.hash:
            raise ResumeMismatchError(
                f"config hash mismatch resuming {run_dir}: manifest "
                f"{manifest.config_hash[:12]}…, plan {plan.hash[:12]}… — "
                "rerun with the original parameters or start a new run dir",
                expected=manifest.config_hash,
                actual=plan.hash,
            )
        journal = CheckpointJournal.load(run_dir)
        for entry in journal.entries():
            if entry.ok:
                resumed_results[entry.key] = journal.load_payload(entry.key)
            else:
                # A journaled failure is not retried: trials are
                # deterministic, so it would fail identically and a
                # resumed run must mirror the uninterrupted one.
                resumed_failed.add(entry.key)
        manifest.add_segment("resume")
    else:
        if (run_dir / "manifest.json").exists():
            raise CheckpointError(
                f"{run_dir} already holds a run; pass resume=True "
                "(--resume) to continue it or choose a fresh directory"
            )
        manifest = RunManifest(
            experiment=plan.name,
            seed=plan.seed,
            config=plan.config,
            config_hash=plan.hash,
            fault_plan=fault_plan_id(plan.fault_plan),
            git_describe=git_describe(),
            trials_total=len(plan.trials),
        )
        manifest.add_segment("start")
        journal = CheckpointJournal(run_dir)
    manifest.status = STATUS_RUNNING
    manifest.trials_total = len(plan.trials)
    manifest.save(run_dir)
    return manifest, journal, resumed_results, resumed_failed


def resolve_finalize(
    plan: ExperimentPlan, merged: dict[str, Any]
) -> tuple[str, Any, Exception | None]:
    """Run *plan.finalize* over *merged* and map the outcome to a run
    status: ``(status, result, error)``."""
    try:
        result = plan.finalize(merged)
    except InsufficientTrialsError as exc:
        return STATUS_INSUFFICIENT, None, exc
    except InvariantViolation as exc:
        return STATUS_INVARIANT, None, exc
    except ReproError as exc:
        return STATUS_FAILED, None, exc
    return STATUS_COMPLETED, result, None


def insufficient_error(
    plan: ExperimentPlan,
    successes: int,
    failures: Sequence[tuple[int, str, str]],
    failed_total: int,
    skipped: int,
) -> InsufficientTrialsError:
    """The standard below-floor error, with the first failures inlined.

    *failures* entries are ``(index, error_type_name, message)`` — plain
    values rather than exception objects so the worker pool can report
    failures that happened in another process.
    """
    detail = "; ".join(
        f"trial {index}: {name}: {message}"
        for index, name, message in list(failures)[:3]
    )
    return InsufficientTrialsError(
        f"{plan.name}: {successes}/{len(plan.trials)} trials succeeded "
        f"(needed {plan.min_successes}; {failed_total} failed, "
        f"{skipped} breaker-skipped)"
        f"{': ' + detail if detail else ''}"
    )


def finish_run(
    plan: ExperimentPlan,
    status: str,
    *,
    result: Any = None,
    error: Exception | None = None,
    run_dir: Path | None,
    manifest: RunManifest | None,
    started: float,
    completed: int,
    failed: int,
    resumed: int,
    skipped: int,
    breaker_events: Sequence[dict[str, Any]],
    breaker_state: str,
    poisoned: Sequence[str] | None = None,
    pool: dict[str, Any] | None = None,
) -> RunOutcome:
    """The :class:`RunOutcome` of a run ending with *status*; for a
    checkpointed run, its counts are also copied into *manifest*, which
    is saved.

    Shared by the serial loop and the worker pool, so both leave the
    same manifest.  Only the pool passes *poisoned* (its quarantined
    trial keys) and *pool* (its telemetry).
    """
    outcome = RunOutcome(
        plan=plan,
        status=status,
        result=result,
        error=error,
        run_dir=run_dir,
        manifest=manifest,
        completed=completed,
        failed=failed,
        resumed=resumed,
        skipped=skipped,
        breaker_events=list(breaker_events),
        elapsed_s=monotonic_clock() - started,
        pool=pool,
    )
    if manifest is not None:
        manifest.status = status
        manifest.completed = completed
        manifest.failed = failed
        manifest.resumed = resumed
        manifest.skipped = skipped
        manifest.exit_code = outcome.exit_code
        manifest.breaker_events = list(breaker_events)
        manifest.breaker_state = breaker_state
        if poisoned is not None:
            manifest.poisoned = list(poisoned)
        manifest.save(run_dir)
    return outcome


def run_experiment(
    plan: ExperimentPlan,
    run_dir: str | Path | None = None,
    resume: bool = False,
    deadline_s: float | None = None,
    breaker: BreakerConfig | None = None,
    catch: tuple[type[Exception], ...] = (ReproError,),
    fault_injector: Any = None,
    workers: int = 1,
    plan_source: Callable[[], "ExperimentPlan"] | None = None,
    executor: str = "auto",
) -> RunOutcome:
    """Execute *plan* under supervision; never raises for expected
    failure modes (they land in the returned :class:`RunOutcome`).

    With *run_dir*, the run is checkpointed and (with ``resume=True``)
    continued from a previous segment.  Without it, the run is in-memory
    only — same loop, no persistence.

    With ``workers > 1`` the plan's trials run on the supervised worker
    pool (:mod:`repro.experiments.pool`), interleaved across its worker
    processes; *plan_source* must then be a picklable zero-argument plan
    factory (e.g. a :class:`~repro.experiments.parallel.PlanHandle`)
    unless the plan itself pickles.  A parallel run is
    observation-equivalent to this serial loop: same journal, same
    manifest, same finalized artifact (see ``docs/parallel.md``).

    *executor* picks how the pool runs:

    ``"auto"``
        Degrade to the serial loop in-process when the pool's cost model
        says parallelism doesn't pay on this host.
    ``"pool"``
        Run on the pool unconditionally (no cost-model degrade).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if executor not in ("auto", "pool"):
        raise ValueError(
            f"executor must be 'auto' or 'pool', got {executor!r}"
        )
    if workers > 1:
        if fault_injector is not None:
            raise ValueError(
                "parallel runs build one FaultInjector per worker from "
                "plan.fault_plan; passing a shared fault_injector across "
                "processes is not supported"
            )
        from repro.experiments.pool import run_pool_experiment

        return run_pool_experiment(
            plan,
            plan_source=plan_source,
            workers=workers,
            run_dir=run_dir,
            resume=resume,
            deadline_s=deadline_s,
            breaker=breaker,
            catch=catch,
            executor=executor,
        )

    started = monotonic_clock()
    journal: CheckpointJournal | None = None
    manifest: RunManifest | None = None
    resumed_results: dict[str, Any] = {}
    resumed_failed: set[str] = set()

    if run_dir is not None:
        run_dir = Path(run_dir)
        manifest, journal, resumed_results, resumed_failed = prepare_checkpoint(
            plan, run_dir, resume
        )

    watchdog = Watchdog(deadline_s)
    circuit = CircuitBreaker(breaker)
    live_results: dict[str, Any] = {}
    live_failures: list[TrialFailure] = []

    def skip_trial(index: int) -> str | None:
        key = plan.trials[index].key
        if key in resumed_results or key in resumed_failed:
            return SKIP_RESUMED
        return circuit.gate(index)

    def on_trial_end(
        index: int, result: Any, failure: TrialFailure | None, elapsed_s: float
    ) -> None:
        key = plan.trials[index].key
        watchdog.note_trial(elapsed_s)
        if failure is None:
            live_results[key] = result
            circuit.record(index, True)
            if journal is not None:
                journal.record_success(index, key, result, elapsed_s=elapsed_s)
        else:
            live_failures.append(failure)
            circuit.record(index, False)
            if journal is not None:
                journal.record_failure(
                    index, key, failure.error, elapsed_s=elapsed_s
                )

    def _finish(status: str, result: Any = None, error: Exception | None = None):
        return finish_run(
            plan,
            status,
            result=result,
            error=error,
            run_dir=run_dir,
            manifest=manifest,
            started=started,
            completed=len(
                _ordered_successes(plan, resumed_results, live_results)
            ),
            failed=len(live_failures) + len(resumed_failed),
            resumed=len(resumed_results),
            skipped=circuit.skipped + _deadline_skips,
            breaker_events=circuit.events,
            breaker_state=circuit.state.value,
        )

    _deadline_skips = 0
    try:
        guarded = run_guarded_trials(
            [spec.fn for spec in plan.trials],
            catch=catch,
            min_successes=0,  # the floor is enforced over merged results
            label=plan.name,
            skip_trial=skip_trial,
            stop=watchdog.check,
            on_trial_end=on_trial_end,
            fault_injector=fault_injector,
        )
    except KeyboardInterrupt:
        # Everything up to the interrupted trial is already journaled.
        return _finish(STATUS_INTERRUPTED)
    except InvariantViolation as exc:
        # A tripped invariant is never a per-trial failure: the model
        # state (and any further trials) can no longer be trusted.
        return _finish(STATUS_INVARIANT, error=exc)

    if guarded.stop_reason == STOP_DEADLINE:
        _deadline_skips = guarded.skipped
        return _finish(STATUS_DEADLINE)

    merged = _ordered_successes(plan, resumed_results, live_results)
    if len(merged) < plan.min_successes:
        error = insufficient_error(
            plan,
            successes=len(merged),
            failures=[
                (f.index, type(f.error).__name__, str(f.error))
                for f in live_failures
            ],
            failed_total=len(live_failures) + len(resumed_failed),
            skipped=circuit.skipped,
        )
        return _finish(STATUS_INSUFFICIENT, error=error)

    status, result, error = resolve_finalize(plan, merged)
    return _finish(status, result=result, error=error)


def execute_plan(plan: ExperimentPlan, **supervision: Any) -> Any:
    """Run *plan* in memory and return the finalized result.

    The modules' ``run()`` entry points delegate here, so *every*
    experiment — CLI or direct call — flows through the same guarded
    loop.  Failure modes raise exactly as they would have before the
    runner existed (see :meth:`RunOutcome.require_result`).
    """
    return run_experiment(plan, **supervision).require_result()


def _ordered_successes(
    plan: ExperimentPlan,
    resumed: dict[str, Any],
    live: dict[str, Any],
) -> dict[str, Any]:
    """Successful results keyed by trial key, in plan order."""
    merged: dict[str, Any] = {}
    for spec in plan.trials:
        if spec.key in live:
            merged[spec.key] = live[spec.key]
        elif spec.key in resumed:
            merged[spec.key] = resumed[spec.key]
    return merged


def require_all(
    results: dict[str, Any], keys: Sequence[str], label: str
) -> list[Any]:
    """Finalize helper for strict plans: every key must have succeeded.

    Returns the results in *keys* order, or raises
    :class:`InsufficientTrialsError` naming the missing trials — the
    strict-module equivalent of "never a silently thinner figure".
    """
    missing = [key for key in keys if key not in results]
    if missing:
        raise InsufficientTrialsError(
            f"{label}: {len(missing)} required trial(s) failed or were "
            f"skipped: {', '.join(missing[:5])}"
            f"{'…' if len(missing) > 5 else ''}"
        )
    return [results[key] for key in keys]
