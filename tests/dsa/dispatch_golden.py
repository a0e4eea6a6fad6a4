"""Golden dispatch-lifecycle fixture: recorder and comparison helpers.

Seeded fuzz cases (:func:`repro.fuzz.gen.generate_case`) run through
:func:`repro.fuzz.executor.execute_case` with faults off, on device
configurations the perfbench workloads never reach: the FIFO arbiter,
two processing units per engine, batches fanned out over three engines,
and two groups of two engines with prioritised queues.  DRAIN
descriptors and WQ disables come from the generator's own vocabulary.

For every case the fixture stores each ticket's lifecycle
``(ticket_id, wq_id, engine_id, dispatch_time, completion_time, status,
opcode)``, the DevTLB and IOTLB counters, and a SHA-256 of the shared
RNG state after the last operation.  Any change to dispatch order,
timing, DevTLB mutation order or RNG draw order changes it.

Re-record only on purpose, and say why in CHANGES.md::

    PYTHONPATH=src python -m tests.dsa.dispatch_golden --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.dsa import device as device_module
from repro.dsa.arbiter import ArbiterPolicy
from repro.dsa.device import DsaDeviceConfig, SubmissionTicket
from repro.dsa.engine import EngineTiming
from repro.fuzz import executor
from repro.fuzz.gen import derive_rng, generate_case, generate_topology
from repro.virt.system import CloudSystem

FIXTURE_DIR = Path(__file__).with_name("fixtures")
FIXTURE = FIXTURE_DIR / "dispatch_lifecycle.json"
MANIFEST = FIXTURE_DIR / "dispatch_lifecycle.sha256"

SEED = 2026

#: Fuzz cases concatenated into one operation list per scenario.
CASES_PER_SCENARIO = 12

TWO_GROUPS = {
    "engines": 4,
    "groups": [(0, 1), (2, 3)],
    "wqs": [
        {"wq_id": 0, "size": 4, "mode": "shared", "priority": 3, "group": 0},
        {"wq_id": 1, "size": 3, "mode": "dedicated", "priority": 1, "group": 0},
        {"wq_id": 2, "size": 5, "mode": "shared", "priority": 0, "group": 0},
        {"wq_id": 3, "size": 4, "mode": "shared", "priority": 2, "group": 1},
        {"wq_id": 4, "size": 3, "mode": "dedicated", "priority": 0, "group": 1},
    ],
}

BATCH_SPREAD = {
    "engines": 3,
    "groups": [(0, 1, 2)],
    "wqs": [
        {"wq_id": 0, "size": 6, "mode": "shared", "priority": 0, "group": 0},
        {"wq_id": 1, "size": 4, "mode": "dedicated", "priority": 2, "group": 0},
    ],
}


@dataclass(frozen=True)
class Scenario:
    """One recorded configuration."""

    name: str
    lane: int
    config: DsaDeviceConfig
    topology: "dict[str, Any] | None" = None  # None: generate_topology
    processes: int = 2


SCENARIOS = (
    Scenario("fifo", 1, DsaDeviceConfig(arbiter_policy=ArbiterPolicy.FIFO)),
    Scenario(
        "concurrent2",
        2,
        DsaDeviceConfig(timing=EngineTiming(concurrent_descriptors=2)),
    ),
    Scenario("batch-spread", 3, DsaDeviceConfig(), BATCH_SPREAD, processes=3),
    Scenario("two-groups", 4, DsaDeviceConfig(), TWO_GROUPS, processes=3),
    Scenario(
        "two-groups-fifo-concurrent2",
        5,
        DsaDeviceConfig(
            arbiter_policy=ArbiterPolicy.FIFO,
            timing=EngineTiming(concurrent_descriptors=2),
        ),
        TWO_GROUPS,
        processes=3,
    ),
)


def _ticket_row(ticket: SubmissionTicket) -> "list[Any]":
    record = ticket.record
    return [
        ticket.ticket_id,
        ticket.wq_id,
        ticket.engine_id,
        ticket.dispatch_time,
        ticket.completion_time,
        record.status.name if record is not None else None,
        ticket.descriptor.opcode.name,
    ]


def run_scenario(scenario: Scenario) -> "dict[str, Any]":
    """Execute one scenario and return its lifecycle summary."""
    rng = derive_rng(SEED, scenario.lane)
    topology = scenario.topology or generate_topology(rng)
    ops: "list[dict[str, Any]]" = []
    for _ in range(CASES_PER_SCENARIO):
        ops.extend(generate_case(rng, topology, scenario.processes))

    tickets: "list[SubmissionTicket]" = []
    systems: "list[CloudSystem]" = []

    class RecordedTicket(SubmissionTicket):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            tickets.append(self)

    def build_system(**kwargs: Any) -> CloudSystem:
        system = CloudSystem(device_config=scenario.config, **kwargs)
        systems.append(system)
        return system

    saved = (device_module.SubmissionTicket, executor.CloudSystem)
    device_module.SubmissionTicket = RecordedTicket
    executor.CloudSystem = build_system
    try:
        result = executor.execute_case(
            ops, topology, seed=SEED, processes=scenario.processes
        )
    finally:
        device_module.SubmissionTicket, executor.CloudSystem = saved

    (system,) = systems
    device = system.device
    devtlb = device.devtlb
    rng_state = json.dumps(system.rng.bit_generator.state, sort_keys=True)
    return {
        "ops": len(ops),
        "finding": result.finding.signature if result.finding else None,
        "ops_executed": result.ops_executed,
        "submissions": result.submissions,
        "handled_errors": result.handled_errors,
        "tickets": [_ticket_row(t) for t in sorted(tickets, key=lambda t: t.ticket_id)],
        "devtlb": [
            devtlb.stats.alloc_requests,
            devtlb.stats.no_alloc,
            devtlb.stats.hits,
        ],
        "devtlb_per_engine": {
            str(engine_id): [
                devtlb.engine_stats(engine_id).alloc_requests,
                devtlb.engine_stats(engine_id).no_alloc,
                devtlb.engine_stats(engine_id).hits,
            ]
            for engine_id in sorted(device.engines)
        },
        "iotlb": [
            device.agent.iotlb.stats.hits,
            device.agent.iotlb.stats.misses,
            device.agent.iotlb.stats.invalidations,
        ],
        "device_time": device.time,
        "rng_sha256": hashlib.sha256(rng_state.encode()).hexdigest(),
    }


def record_all() -> "dict[str, Any]":
    """Every scenario's summary, keyed by scenario name."""
    return {scenario.name: run_scenario(scenario) for scenario in SCENARIOS}


def encode(summary: "dict[str, Any]") -> bytes:
    """Canonical JSON: one ticket per line keeps diffs readable."""
    lines = ["{"]
    names = list(summary)
    for index, name in enumerate(names):
        body = dict(summary[name])
        tickets = body.pop("tickets")
        lines.append(f"  {json.dumps(name)}: {{")
        for key in body:
            lines.append(f"    {json.dumps(key)}: {json.dumps(body[key], sort_keys=True)},")
        lines.append('    "tickets": [')
        for row_index, row in enumerate(tickets):
            comma = "," if row_index < len(tickets) - 1 else ""
            lines.append(f"      {json.dumps(row)}{comma}")
        lines.append("    ]")
        lines.append("  }" + ("," if index < len(names) - 1 else ""))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help="rewrite the fixture and manifest"
    )
    args = parser.parse_args()
    data = encode(record_all())
    if args.record:
        FIXTURE_DIR.mkdir(exist_ok=True)
        FIXTURE.write_bytes(data)
        MANIFEST.write_text(f"{digest(data)}  {FIXTURE.name}\n")
        print(f"recorded {FIXTURE} ({len(data)} bytes)")
    else:
        same = FIXTURE.exists() and FIXTURE.read_bytes() == data
        print("fixture matches" if same else "fixture DIFFERS")
        raise SystemExit(0 if same else 1)


if __name__ == "__main__":
    main()
