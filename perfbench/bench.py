"""Runner behind run.py: set-up repetitions, timed units, checks, metrics."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from run import THREAD_VARS
from spans import Probe, nesting_problems, per_run_totals, write_spans
from workloads import WORKLOADS, Outcome, Verdict

# set-up repeats at least this often and for at least this long, so even a
# cheap set-up gives a steady median
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
COHORT_WORKERS = 2

# per-layer metric -> (span name, count key) for counts read at a boundary
DERIVED = {
    "registration.inner_steps": ("registration.optimize_fields", "inner_steps"),
    "registration.lr_drops": ("registration.optimize_fields", "lr_drops"),
    "pipeline.outer_iters": ("pipeline.run_case", "outer_iters"),
    "io.bytes_read": ("io.read_case", "bytes_read"),
}


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def dir_bytes(path: Path) -> int:
    return int(sum(p.stat().st_size for p in path.rglob("*") if p.is_file()))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


@dataclass
class UnitRun:
    traced: bool
    seconds: float
    verdict: Verdict
    bytes_written: int


def measure(root: Path, wl, seed: int, seconds: float, trace: bool, import_s: float,
            layer_names=()) -> dict:
    """Run one workload; returns every number the report needs.

    ``layer_names`` are the per-layer metrics a traced run reports.
    """
    base = root / ".bench_build" / "perfbench"
    work = base / f"work-{wl.name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spans: list = []
        setup_times, state = set_up(wl, seed, work, trace, spans)
        units = run_units(wl, state, work, seconds, trace, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = units[0].verdict
    problems = []
    for i, u in enumerate(units):
        problems += [f"unit {i}: {p}" for p in u.verdict.problems]
        same = (u.verdict.accuracy, u.verdict.counts) == (first.accuracy, first.counts)
        if not same and not u.verdict.problems:
            problems.append(f"unit {i}: accuracy or counts differ from unit 0")
    plain = statistics.median(u.seconds for u in units if not u.traced)
    result = {
        "workload": wl.name,
        "size": wl.describe(),
        "env": environment(seed),
        "trace": trace,
        "import_s": import_s,
        "setup_times": setup_times,
        "unit_times": [u.seconds for u in units],
        "unit_traced": [u.traced for u in units],
        "attempted": sum(u.verdict.attempted for u in units),
        "failed": sum(u.verdict.failed for u in units),
        "problems": problems,
        "accuracy": first.accuracy,
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "wall_s": plain,
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    base.mkdir(parents=True, exist_ok=True)
    if trace:
        problems += nesting_problems(spans)
        traced = [u for u in units if u.traced]
        layers = layer_metrics(spans, [u.bytes_written for u in traced], layer_names)
        overhead = statistics.median(u.seconds for u in traced) - plain
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_frac"] = overhead / plain
        result["per_layer"] = layers
        write_spans(spans, base / f"spans-{wl.name}-{seed}.jsonl")
    result["correct"] = not problems
    (base / f"result-{wl.name}-{seed}-{int(trace)}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n"
    )
    return result


def set_up(wl, seed: int, work: Path, trace: bool, spans: list):
    """Build the inputs repeatedly; returns the times and the last state."""
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        k = len(times)
        if k:
            shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
        t0 = time.perf_counter()
        with Probe(trace, spans=spans, run=f"setup-{k}"):
            state = wl.setup(seed, work / f"setup{k}")
        times.append(time.perf_counter() - t0)
    return times, state


def run_units(wl, state, work: Path, seconds: float, trace: bool, spans: list) -> list:
    """Repeat the timed unit while another one fits in ``seconds``.

    A traced run alternates untraced and traced units, at least one of each,
    and runs a cohort's cases in this process so no worker's spans are lost.
    """
    units = []
    t_start = time.perf_counter()
    while True:
        k = len(units)
        traced = trace and k % 2 == 1
        out = work / f"unit{k}"
        probe = Probe(traced, capture=wl.capture, spans=spans, run=f"unit-{k}")
        with probe:
            t0 = time.perf_counter()
            try:
                outcome = wl.unit(state, out, probe, 1 if trace else COHORT_WORKERS)
            except Exception as err:  # a failed unit is counted, the run goes on
                outcome = Outcome(out, None, f"{type(err).__name__}: {err}")
            dt = time.perf_counter() - t0
        error = outcome.error
        if error is None:
            try:
                verdict = wl.check(state, outcome)
            except Exception as err:  # e.g. an artifact the unit never wrote
                error = f"check raised {type(err).__name__}: {err}"
        if error is not None:
            n = wl.attempted(state)
            verdict = Verdict(n, n, {}, {}, [error])
        del outcome  # so the next unit's peak memory does not include this one
        units.append(UnitRun(traced, dt, verdict, dir_bytes(out) if out.exists() else 0))
        shutil.rmtree(out, ignore_errors=True)
        typical = statistics.median(u.seconds for u in units)
        if time.perf_counter() - t_start + typical > seconds and (not trace or k >= 1):
            return units


def layer_metrics(spans, bytes_written, names) -> dict:
    """Per-layer numbers per traced unit (median over units).

    A layer that never runs inside a unit, such as the phantom in workloads
    that simulate during set-up, is reported per set-up repetition instead.
    """
    runs = per_run_totals(spans)
    units = [rows for run, rows in runs.items() if run.startswith("unit-")]
    setups = [rows for run, rows in runs.items() if run.startswith("setup-")]

    def stat(layer, key):
        pool = units if any(layer in u for u in units) else setups
        values = [u.get(layer, {}).get(key, 0) for u in pool]
        return float(statistics.median(values)) if values else 0.0

    def per_call_ms(layer):
        values = [1000.0 * u[layer]["incl_s"] / u[layer]["calls"] for u in units if layer in u]
        return float(statistics.median(values)) if values else 0.0

    out = {}
    for name in names:
        if name in DERIVED:
            out[name] = stat(*DERIVED[name])
        elif name == "registration.improving_step_frac":
            steps = stat("registration.optimize_fields", "inner_steps")
            improving = stat("registration.optimize_fields", "improving_steps")
            out[name] = improving / steps if steps else 0.0
        elif name == "io.bytes_written":
            out[name] = float(statistics.median(bytes_written))
        elif name.startswith("trace."):
            continue
        else:
            layer, key = name.rsplit(".", 1)
            out[name] = per_call_ms(layer) if key == "ms_per_call" else stat(layer, key)
    return out


def render(spec: dict, result: dict) -> list:
    """Human-readable lines, then the one-line JSON result."""
    env = result["env"]
    lines = [
        f"# workload {result['workload']}: {result['size']}",
        "# env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
        + " " + " ".join(f"{k}={v}" for k, v in env["threads"].items()),
        f"# import_s {result['import_s']:.4f} (once per process, not in setup_s)",
        "# setup_times_s " + " ".join(f"{t:.4f}" for t in result["setup_times"]),
        "# unit_times_s " + " ".join(
            f"{t:.4f}{'*' if tr else ''}"
            for t, tr in zip(result["unit_times"], result["unit_traced"])
        ) + (" (* traced)" if result["trace"] else ""),
    ]
    frac = result["failed"] / result["attempted"]
    lines.append(f"failed_frac {frac:.6g} ratio ({result['failed']}/{result['attempted']})")
    for name, (value, unit) in result["accuracy"].items():
        lines.append(f"{name} {value:.6g} {unit}")
    for p in result["problems"]:
        lines.append(f"# problem: {p}")
    if result["trace"]:
        defs, values = spec["per_layer"], result["per_layer"]
    else:
        defs, values = spec["end_to_end"], result["end_to_end"]
    metrics = {}
    for m in defs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    lines.append(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return lines


def run(root: Path, args, import_s: float) -> int:
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    result = measure(
        root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s,
        [m["name"] for m in spec["per_layer"]],
    )
    for line in render(spec, result):
        print(line, flush=True)
    return 0
