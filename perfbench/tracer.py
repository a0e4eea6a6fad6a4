"""In-memory span tracer that wraps layer boundaries from outside ``src/``.

:meth:`Tracer.install` replaces each function named in :data:`SPANS` with
a wrapper that times the call.  Every call updates its span name's count,
total and self time (total minus the time covered by nested traced
calls); coarse boundaries listed in :data:`KEPT` also keep one span each
(name, start, end, parent) for the trace file.  Per-descriptor
boundaries are only aggregated, which keeps tracing cost bounded.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

#: Traced boundaries: span name -> (module, class, function).  The first
#: dotted part of a span name is its layer (the ``repro`` subpackage).
SPANS: dict[str, tuple[str, str, str]] = {
    "dsa.enqcmd": ("repro.dsa.portal", "Portal", "enqcmd"),
    "dsa.movdir64b": ("repro.dsa.portal", "Portal", "movdir64b"),
    "dsa.submit": ("repro.dsa.portal", "Portal", "submit"),
    "dsa.wait": ("repro.dsa.portal", "Portal", "wait"),
    "dsa.advance_to": ("repro.dsa.device", "DsaDevice", "advance_to"),
    "dsa.execute": ("repro.dsa.engine", "Engine", "execute"),
    "ats.translate": ("repro.ats.agent", "TranslationAgent", "translate"),
    "ats.devtlb_access": ("repro.ats.devtlb", "DevTlb", "access"),
    "ats.devtlb_fill": ("repro.ats.devtlb", "DevTlb", "fill"),
    "virt.system_init": ("repro.virt.system", "CloudSystem", "__init__"),
    "virt.setup_topology": ("repro.virt.system", "CloudSystem", "setup_topology"),
    "virt.run_until": ("repro.virt.scheduler", "Timeline", "run_until"),
    "virt.idle_until": ("repro.virt.scheduler", "Timeline", "idle_until"),
    "core.probe_noop": ("repro.core.primitives", "Prober", "probe_noop"),
    "core.probe_memcmp": ("repro.core.primitives", "Prober", "probe_memcmp"),
    "core.probe_memcpy": ("repro.core.primitives", "Prober", "probe_memcpy"),
    "core.probe_dualcast": ("repro.core.primitives", "Prober", "probe_dualcast"),
    "core.devtlb_probe": ("repro.core.devtlb_attack", "DsaDevTlbAttack", "probe"),
    "core.calibrate": ("repro.core.devtlb_attack", "DsaDevTlbAttack", "calibrate"),
    "core.swq_round": ("repro.core.swq_attack", "DsaSwqAttack", "run_round"),
    "core.swq_probe": ("repro.core.swq_attack", "DsaSwqAttack", "probe"),
    "core.devtlb_sampler": ("repro.core.sampling", "DevTlbSampler", "collect_trace"),
    "core.swq_sampler": ("repro.core.sampling", "SwqSampler", "collect_trace"),
    "covert.devtlb_sync": ("repro.covert.channel", "DevTlbCovertReceiver", "synchronize"),
    "covert.devtlb_receive": ("repro.covert.channel", "DevTlbCovertReceiver", "receive"),
    "covert.swq_sync": ("repro.covert.channel", "SwqCovertReceiver", "synchronize"),
    "covert.swq_receive": ("repro.covert.channel", "SwqCovertReceiver", "receive"),
    "covert.schedule": ("repro.covert.protocol", "CovertSender", "schedule_message"),
    "workloads.transfer_packet": ("repro.workloads.vpp", "MemifInterface", "transfer_packet"),
    "workloads.schedule_trace": ("repro.workloads.vpp", "VppVictim", "schedule_trace"),
    "workloads.generate_visit": ("repro.workloads.websites", "WebsiteProfile", "generate_visit"),
    "ml.fit": ("repro.ml.train", "Trainer", "fit"),
    "ml.predict": ("repro.ml.train", "Trainer", "predict"),
    "service.lane_build": ("repro.service.devices", "DeviceLane", "__init__"),
    "service.round": ("repro.service.devices", "DeviceLane", "run_round"),
    "service.calibrate": ("repro.service.devices", "DeviceLane", "ensure_calibrated"),
    "service.admit": ("repro.service.admission", "AdmissionController", "admit"),
}

#: Boundaries coarse enough to keep one span per call in the trace file.
KEPT = frozenset(
    {
        "bench.unit",
        "virt.system_init",
        "core.calibrate",
        "core.devtlb_sampler",
        "core.swq_sampler",
        "covert.devtlb_sync",
        "covert.devtlb_receive",
        "covert.swq_sync",
        "covert.swq_receive",
        "ml.fit",
        "ml.predict",
        "service.lane_build",
    }
)


def _received_bits(args: tuple, bits: Any) -> dict[str, int]:
    return {"covert_bits": len(bits)}


def _trained(args: tuple, result: Any) -> dict[str, int]:
    # Trainer.fit(x, y): samples trained per epoch times epochs run.
    return {
        "ml_epochs": result.epochs_run,
        "ml_sample_epochs": len(args[1]) * result.epochs_run,
    }


#: Counts read from a traced call's arguments and result.
OBSERVERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    # enqcmd returns ZF: 1 means the queue was full (retry).
    "dsa.enqcmd": lambda args, zf: {"enqcmd_zf": int(bool(zf))},
    "covert.devtlb_receive": _received_bits,
    "covert.swq_receive": _received_bits,
    "ml.fit": _trained,
}


class SpanStats:
    """Aggregate of every call to one span name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Times nested calls; see the module docstring."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.observed: dict[str, int] = {}
        # Open frames: [name, start, child seconds, kept span id or -1].
        self._stack: list[list[Any]] = []
        self._kept_parents: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[type, str, Callable[..., Any]]] = []

    # -- timing ----------------------------------------------------------
    def _enter(self, name: str) -> list[Any]:
        span_id = -1
        if name in KEPT:
            span_id = self._next_id
            self._next_id += 1
            self._kept_parents.append(span_id)
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, span_id = frame
        duration = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if span_id >= 0:
            self._kept_parents.pop()
            parent = self._kept_parents[-1] if self._kept_parents else -1
            self.spans.append((span_id, parent, name, start, end))

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run *fn* inside a span called *name*."""
        frame = self._enter(name)
        try:
            return fn()
        finally:
            self._exit(frame)

    # -- wrapping ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary in :data:`SPANS`."""
        for name, (module, owner_name, attr) in SPANS.items():
            owner = getattr(importlib.import_module(module), owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
        enter, exit_ = self._enter, self._exit
        observed = self.observed
        observe = OBSERVERS.get(name)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(frame)
            if observe is not None:
                for key, value in observe(args, result).items():
                    observed[key] = observed.get(key, 0) + value
            return result

        return traced

    # -- results -----------------------------------------------------------
    def calls(self, *names: str) -> int:
        """Calls of the named spans."""
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def self_s(self, *names: str) -> float:
        """Self seconds of the named spans."""
        return sum(self.stats[n].self_s for n in names if n in self.stats)

    def total_s(self, *names: str) -> float:
        """Total (inclusive) seconds of the named spans."""
        return sum(self.stats[n].total_s for n in names if n in self.stats)

    def layer_self_s(self) -> float:
        """Self seconds of every traced layer span (``bench.*`` excluded)."""
        return sum(
            s.self_s for n, s in self.stats.items() if not n.startswith("bench.")
        )

    def write(self, path: Path, extra: dict[str, Any]) -> None:
        """Write the kept spans and the per-name aggregates as JSON."""
        origin = min((span[3] for span in self.spans), default=0.0)
        payload = {
            **extra,
            "aggregates": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in sorted(self.stats.items())
            },
            "spans": [
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                }
                for span_id, parent, name, start, end in sorted(
                    self.spans, key=lambda span: span[0]
                )
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")
