"""Per-layer metrics from a traced unit.

Names follow ``repro``'s subpackages.  ``_s`` metrics are self time
(span time minus nested traced spans) for the leaf layers — ``dsa``,
``ats``, ``virt.scheduler_s``, ``core.probe_s`` and ``workloads`` — and
inclusive time for the phase boundaries of the upper layers, as listed
in ``perfbench/README.md``.  A layer that does no work in a workload
reports 0.
"""

from __future__ import annotations

from typing import Any

from perfbench.tracer import Tracer
from perfbench.workloads import Unit

#: Rejection reasons reported one by one.
REJECTION_REASONS = ("rate-limit", "tenant-quota", "circuit-open", "queue-full")

_SUBMIT = ("dsa.enqcmd", "dsa.movdir64b", "dsa.submit", "dsa.wait")
_ATS = ("ats.translate", "ats.devtlb_access", "ats.devtlb_fill")
_PROBES = (
    "core.probe_noop",
    "core.probe_memcmp",
    "core.probe_memcpy",
    "core.probe_dualcast",
)
_WORKLOADS = (
    "workloads.transfer_packet",
    "workloads.schedule_trace",
    "workloads.generate_visit",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def model_layers(unit: Unit, tracer: Tracer) -> dict[str, float]:
    """``dsa``, ``ats``, ``virt``, ``core``, ``covert`` and ``workloads``."""
    c = unit.counters
    t = tracer
    # Host time inside the device model: portal, device, engines, ATS.
    device_s = t.self_s(*_SUBMIT, "dsa.advance_to", "dsa.execute", *_ATS)
    return {
        "dsa.descriptors": c.get("descriptors", 0),
        "dsa.enqcmd_retry_ratio": _ratio(
            t.observed.get("enqcmd_zf", 0), t.calls("dsa.enqcmd")
        ),
        "dsa.submit_s": t.self_s(*_SUBMIT),
        "dsa.advance_s": t.self_s("dsa.advance_to"),
        "dsa.execute_s": t.self_s("dsa.execute"),
        "dsa.us_per_descriptor": _ratio(device_s * 1e6, c.get("descriptors", 0)),
        "ats.devtlb_accesses": c.get("devtlb_accesses", 0),
        "ats.devtlb_hit_ratio": _ratio(c.get("devtlb_hits", 0), c.get("devtlb_accesses", 0)),
        "ats.translations": t.calls("ats.translate"),
        "ats.iotlb_hit_ratio": _ratio(c.get("iotlb_hits", 0), c.get("iotlb_lookups", 0)),
        "ats.self_s": t.self_s(*_ATS),
        "virt.systems": c.get("systems", 0),
        "virt.build_s": t.total_s("virt.system_init", "virt.setup_topology"),
        "virt.scheduler_s": t.self_s("virt.run_until", "virt.idle_until"),
        "core.probes": t.calls(*_PROBES),
        "core.probe_s": t.self_s(*_PROBES, "core.devtlb_probe", "core.swq_probe"),
        "core.swq_rounds": t.calls("core.swq_round"),
        "core.calibrate_s": t.total_s("core.calibrate"),
        "core.sampler_s": t.total_s("core.devtlb_sampler", "core.swq_sampler"),
        "covert.bits": t.observed.get("covert_bits", 0),
        "covert.sync_s": t.total_s("covert.devtlb_sync", "covert.swq_sync"),
        "covert.receive_s": t.total_s("covert.devtlb_receive", "covert.swq_receive"),
        "workloads.packets": t.calls("workloads.transfer_packet"),
        "workloads.self_s": t.self_s(*_WORKLOADS),
    }


def runner_layers(unit: Unit, tracer: Tracer) -> dict[str, float]:
    """``ml`` and ``experiments``: what the parent process sees."""
    t = tracer
    fit_s = t.total_s("ml.fit")
    trial_s = sum(unit.trial_times)
    workers = unit.layers.get("workers", 1)
    finalize_s = unit.layers.get("finalize_s", 0.0)
    trial_phase_s = unit.elapsed_s - finalize_s
    experiment = bool(unit.trial_times)
    return {
        "ml.fit_s": fit_s,
        "ml.predict_s": t.total_s("ml.predict"),
        "ml.epochs": t.observed.get("ml_epochs", 0),
        "ml.train_samples_per_s": _ratio(t.observed.get("ml_sample_epochs", 0), fit_s),
        "experiments.trials": len(unit.trial_times),
        "experiments.trial_s_sum": trial_s,
        "experiments.finalize_s": finalize_s,
        "experiments.runner_overhead_s": (
            trial_phase_s - trial_s / workers if experiment else 0.0
        ),
        "experiments.pool_respawns": unit.layers.get("pool_respawns", 0),
        "experiments.pool_plan_reuses": unit.layers.get("pool_plan_reuses", 0),
        "experiments.pool_efficiency": (
            _ratio(trial_s, workers * trial_phase_s) if experiment else 0.0
        ),
    }


def service_layers(unit: Unit, tracer: Tracer) -> dict[str, float]:
    """``service``: rounds, admission, and the loop around them."""
    t = tracer
    books = unit.layers
    round_s = t.total_s("service.round")
    admit_s = t.total_s("service.admit")
    calibrate_s = t.total_s("service.calibrate")
    metrics: dict[str, float] = {
        "service.rounds": t.calls("service.round"),
        "service.round_s": round_s,
        "service.round_share": _ratio(round_s, unit.elapsed_s),
        "service.calibrate_s": calibrate_s,
        "service.admit_calls": t.calls("service.admit"),
        "service.admit_s": admit_s,
    }
    rejected = books.get("rejected", {})
    for reason in REJECTION_REASONS:
        metrics[f"service.rejected.{reason}"] = rejected.get(reason, 0)
    in_service = "offered" in books
    metrics.update(
        {
            "service.shed": books.get("shed", 0),
            "service.mode_transitions": books.get("mode_transitions", 0),
            "service.queue_high_water": books.get("queue_high_water", 0),
            "service.loop_other_s": (
                unit.elapsed_s
                - round_s
                - admit_s
                - calibrate_s
                - t.total_s("service.lane_build")
                if in_service
                else 0.0
            ),
        }
    )
    return metrics


def unattributed_s(unit: Unit, tracer: Tracer) -> float:
    """Traced unit time not covered by any layer's self time."""
    return unit.elapsed_s - tracer.layer_self_s()


def per_layer(
    traced: Unit,
    tracer: Tracer,
    model_unit: Unit,
    model_tracer: Tracer,
    untraced_run_s: float,
    imports: dict[str, float],
) -> dict[str, Any]:
    """Every per-layer metric.

    *traced*/*tracer* is the traced unit as the workload runs it;
    *model_unit*/*model_tracer* is where the model layers were visible —
    the same unit, except for a pooled run, whose workers the parent
    cannot wrap: there it is a serial traced run of the same plan.
    """
    metrics: dict[str, Any] = dict(imports)
    metrics.update(model_layers(model_unit, model_tracer))
    metrics.update(runner_layers(traced, tracer))
    metrics.update(service_layers(traced, tracer))
    metrics["trace_overhead"] = _ratio(traced.nominal_s, untraced_run_s)
    metrics["unattributed_s"] = unattributed_s(model_unit, model_tracer)
    return metrics
