"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload covert --seed 2026 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` also runs one
traced unit and reports the per-layer metrics instead.  The metric names,
units and bounds are those of ``BENCHMARK.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full report (host fingerprint, every
end-to-end metric, paper references, checks) is written to
``.bench_out/``.  Host times are at nominal host speed
(``perfbench/speed.py``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Fresh-process imports per module for the ``import.*`` layer metrics.
IMPORT_SAMPLES = 3
IMPORT_PROBES = {
    "import.experiments_s": "repro.experiments.__main__",
    "import.service_s": "repro.service.__main__",
    "import.scipy_stats_s": "scipy.stats",
}
#: Paper values for the simulated accuracy metrics (DSAssassin, HPCA 2026).
PAPER = {
    "devtlb_peak_kbps": 17.19,
    "devtlb_ber": 0.0463,
    "top1_accuracy": 0.965,
}
#: Units of the metrics that are reported but not in ``BENCHMARK.json``.
REPORTED_UNITS = {
    "units": "count",
    "run_wall_s": "s",
    "host_speed": "ratio",
    "error_ratio": "ratio",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "trial_s_tail_percentile": "percentile",
    "trial_samples": "count",
    "sessions_per_s": "1/s",
    "session_latency_p50_cycles": "cycles",
    "session_latency_p99_cycles": "cycles",
    "slo_attainment": "ratio",
    "devtlb_peak_kbps": "kbps",
    "devtlb_ber": "ratio",
    "top1_accuracy": "ratio",
}
CHILD_TIMEOUT_S = 120
#: Longest temporary directory that leaves room for multiprocessing's
#: ``pymp-*/listener-*`` socket names under the UNIX socket limit.
TMP_PATH_LIMIT = 60
#: The seed whose output digests are committed in ``expected.json``.
DEFAULT_SEED = 2026


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print READY, and exit (used to time set-up)",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_loop_s() -> float:
    """Median time of a fixed pure-Python loop: a host speed reference."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_fingerprint() -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_loop_s": calibration_loop_s(),
    }


# ----------------------------------------------------------------------
# Fresh-process probes
# ----------------------------------------------------------------------
def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def time_setup(workload: str, seed: int) -> float:
    """Nominal seconds from starting a fresh process to its first timed
    operation, at the host speed the process sampled."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=_child_env()
    ) as child:
        line = child.stdout.readline().split()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    if len(line) != 2 or line[0] != "READY" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed * float(line[1])


def time_import(module: str) -> float:
    """Seconds a fresh interpreter spends importing *module*."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        "__import__(sys.argv[1])\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, module],
        capture_output=True, text=True, env=_child_env(),
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip())


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def timed_units(workload, seconds: float) -> list:
    """Untraced units until *seconds* have passed (at least one)."""
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(workload.unit())
    return units


def tail_percentile(samples: int) -> int | None:
    """Highest whole percentile with at least ten samples above it."""
    if samples <= 10:
        return None
    return int(100 * (samples - 10) // samples)


def end_to_end(workload, units) -> tuple[dict, dict]:
    """(gated metrics but ``setup_s``, reported-only metrics) of untraced
    *units*."""
    import numpy as np

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    gated = {
        "run_s": statistics.median(u.nominal_s for u in units),
        "sim_descriptors_per_s": statistics.median(
            u.counters.get("descriptors", 0) / u.nominal_s for u in units
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    reported: dict[str, object] = {
        "units": len(units),
        "run_wall_s": statistics.median(u.elapsed_s for u in units),
        "host_speed": statistics.median(u.nominal_s / u.elapsed_s for u in units),
        "error_ratio": failed / attempted if attempted else 0.0,
    }
    trial_times = [
        t * u.nominal_s / u.elapsed_s for u in units for t in u.trial_times
    ]
    if trial_times:
        pct = tail_percentile(len(trial_times))
        reported["trial_s_p50"] = float(np.percentile(trial_times, 50))
        reported["trial_s_tail"] = (
            float(np.percentile(trial_times, pct)) if pct is not None else None
        )
        reported["trial_s_tail_percentile"] = pct
        reported["trial_samples"] = len(trial_times)
    if workload.operation == "session":
        reported["sessions_per_s"] = statistics.median(
            u.attempted / u.nominal_s for u in units
        )
    for name, value in units[0].simulated.items():
        reported[name] = value
        if name in PAPER:
            reported[f"{name}_paper"] = PAPER[name]
            # Relative error against the paper: (measured - paper) / paper.
            reported[f"{name}_error"] = (value - PAPER[name]) / PAPER[name]
    return gated, reported


def check_outputs(workload, seed: int, units) -> list[str]:
    """Problems with the units' outputs (empty when every check passes)."""
    problems = [p for u in units for p in u.problems]
    digests = {u.digest for u in units}
    if len(digests) != 1:
        problems.append(f"output changed between repeats: {sorted(digests)}")
    if seed == DEFAULT_SEED:
        expected = json.loads(
            (Path(__file__).resolve().parent / "expected.json").read_text()
        ).get(workload.name)
        if units[0].digest != expected:
            problems.append(
                f"output digest {units[0].digest} differs from the committed "
                f"{expected}"
            )
    return problems


def traced_unit(workload, serial: bool = False):
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        unit = workload.unit(tracer, serial=serial)
    finally:
        tracer.uninstall()
    return unit, tracer


def stop_helper_processes() -> None:
    """Stop multiprocessing's fork server and resource tracker, waiting
    for each, so the benchmark leaves no process behind."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def setup_only(name: str, seed: int) -> int:
    """Set *name* up, then print ``READY`` and the host speed sampled
    meanwhile, for :func:`time_setup`."""
    from perfbench import speed

    with speed.sampling() as sampler:
        from perfbench import workloads

        workload = workloads.build(name)
        workload.setup(seed)
    print(f"READY {speed.mean_speed(sampler.speeds)!r}", flush=True)
    workload.close()
    stop_helper_processes()
    return 0


def _fmt(value: object) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The CLIs' default: invariant monitor off (and no fault plan).
    os.environ["REPRO_INVARIANTS"] = "off"
    # Keep temporary files (the pool's fork-server socket) in the
    # checkout, unless the path is too long for a UNIX socket (107 bytes).
    tmp = OUT_DIR / "tmp"
    if len(str(tmp)) <= TMP_PATH_LIMIT:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)

    if args.setup_only:
        return setup_only(args.workload, args.seed)

    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        workload.setup(args.seed)
        host = host_fingerprint()
        if args.trace:
            imports = {
                name: statistics.median(time_import(module) for _ in range(IMPORT_SAMPLES))
                for name, module in IMPORT_PROBES.items()
            }
            setup_samples: list[float] = []
        else:
            setup_samples = [
                time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)
            ]
        units = timed_units(workload, args.seconds)
        gated, reported = end_to_end(workload, units)
        if setup_samples:
            gated["setup_s"] = statistics.median(setup_samples)
        checked = list(units)
        trace_file = None
        if args.trace:
            from perfbench import layers

            traced, tracer = traced_unit(workload)
            model_unit, model_tracer = traced, tracer
            if args.workload == "fingerprint":
                model_unit, model_tracer = traced_unit(workload, serial=True)
            checked.append(traced)
            if model_unit is not traced:
                checked.append(model_unit)
            metrics = layers.per_layer(
                traced, tracer, model_unit, model_tracer, gated["run_s"], imports
            )
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            model_tracer.write(trace_file, {"workload": args.workload, "seed": args.seed})
            names = spec["per_layer"]
        else:
            metrics = gated
            names = spec["end_to_end"]
    finally:
        workload.close()
        stop_helper_processes()

    problems = check_outputs(workload, args.seed, checked)
    attempted = sum(u.attempted for u in checked)
    # Each failed check counts as one more failed operation.
    failed = sum(u.failed for u in checked) + len(problems)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setup_samples_s": setup_samples,
        "unit_s": [u.elapsed_s for u in units],
        "unit_nominal_s": [u.nominal_s for u in units],
        "end_to_end": {**gated, **reported},
        "per_layer": metrics if args.trace else None,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "output_check": {
            "passed": not problems,
            "digest": checked[0].digest,
            "problems": problems,
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  host {host}")
    units_of = dict(REPORTED_UNITS)
    units_of.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    for paper_name in PAPER:
        units_of[f"{paper_name}_paper"] = units_of[paper_name]
        units_of[f"{paper_name}_error"] = "ratio"
    shown = {**gated, **reported, **(metrics if args.trace else {})}
    for name, value in shown.items():
        print(f"  {name} = {_fmt(value)} {units_of[name]}")
    print(f"  output check: {'pass' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"    {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
