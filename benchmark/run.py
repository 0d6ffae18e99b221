#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload crossover --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy, and the run fails (exit 2) without it.
With --trace 0 the run repeats rounds of the workload, each on fresh inputs
drawn from the seed, while the next round is expected to fit in --seconds
(at least one round), and reports the end-to-end metrics.  With --trace 1 it
runs round 0 untraced and then round 0 traced, and reports the per-layer
metrics of the traced round; their counts repeat exactly for a seed.

The output is one line per metric, a `meta` line with the seed, the input
digest and the machine, and last a JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5  # this process plus fresh interpreters; the median is reported
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit); every workload reports all of them
END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (name, function, statistic, unit); statistics are per traced round
PER_LAYER = (
    ("engine.build_rate_trace.calls", "engine.build_rate_trace", "calls", "count"),
    ("engine.build_rate_trace.points", "engine.build_rate_trace", "work", "count"),
    ("engine.build_rate_trace.self_s", "engine.build_rate_trace", "self_s", "s"),
    ("engine.build_rate_trace.useful_points_ratio", None, None, "ratio"),
    ("dynamics.choose_horizon.calls", "dynamics.choose_horizon", "calls", "count"),
    ("dynamics.choose_horizon.total_s", "dynamics.choose_horizon", "total_s", "s"),
    ("engine.angular_kernel.calls", "engine.angular_kernel", "calls", "count"),
    ("engine.angular_kernel.nodes", "engine.angular_kernel", "work", "count"),
    ("engine.angular_kernel.total_s", "engine.angular_kernel", "total_s", "s"),
    ("dynamics.find_negative_intervals.self_s", "dynamics.find_negative_intervals", "self_s", "s"),
    ("engine.decoherence.calls", "engine.decoherence", "calls", "count"),
    ("engine.decoherence.self_s", "engine.decoherence", "self_s", "s"),
    ("engine.rate.calls", "engine.rate", "calls", "count"),
    ("engine.rate.self_s", "engine.rate", "self_s", "s"),
    ("engine.build_decoherence_trace.self_s", "engine.build_decoherence_trace", "self_s", "s"),
    ("analysis.toy_critical_s.total_s", "analysis.toy_critical_s", "total_s", "s"),
    ("analysis.classify.calls", "analysis.classify", "calls", "count"),
    ("analysis.classify.total_s", "analysis.classify", "total_s", "s"),
    ("dynamics.measure.calls", "dynamics.measure", "calls", "count"),
    ("dynamics.measure.total_s", "dynamics.measure", "total_s", "s"),
    ("params.model_from_config.total_s", "params.model_from_config", "total_s", "s"),
    ("tracing_overhead_ratio", None, None, "ratio"),
)

# a rate trace is useful when a classification or an interval search reads it,
# or when the caller asked for it; choose_horizon's probe traces are not
USEFUL_TRACE_PARENTS = (None, "analysis.classify", "dynamics.find_negative_intervals")

_PROBE = """
import sys
sys.path[:0] = sys.argv[3:5]
import run
print(run.time_setup(sys.argv[1], int(sys.argv[2]))[0])
"""


def time_setup(workload: str, seed: int):
    """Import the library and build round 0's models; (seconds, inputs, state)."""
    start = time.perf_counter()
    import inputs
    import workloads

    data = inputs.generate(workload, seed, 0)
    state = workloads.WORKLOADS[workload].setup(data)
    return time.perf_counter() - start, data, state


def probe_setup(workload: str, seed: int) -> float:
    """time_setup in a fresh interpreter, so the import is paid again."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, workload, str(seed), str(SRC), str(HERE)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def cap_blas_threads(nproc: int) -> dict:
    """Set the BLAS thread counts before numpy is imported.

    A value from the environment is kept, capped at nproc; unset means 1,
    since a workload is one caller with no added threads, and a second BLAS
    thread was measured to double the CPU time of a classification without
    shortening it.
    """
    for var in BLAS_VARIABLES:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return {var: int(os.environ[var]) for var in BLAS_VARIABLES}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_round(workload, state, tracer=None):
    """(round seconds, failure reasons per operation); checks are not timed."""
    start = time.perf_counter()
    if tracer is None:
        calls = workload.run(state)
    else:
        with tracer:
            calls = workload.run(state)
    seconds = time.perf_counter() - start
    try:
        failures = workload.check(state, calls)
    except Exception as exc:  # a check that cannot be evaluated is a failure
        failures = [f"check raised {type(exc).__name__}: {exc}"] * max(1, len(calls))
    return seconds, calls, failures


def per_layer_metrics(spans, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
    import tracer

    stats = tracer.function_stats(spans)
    out = {}
    for name, function, statistic, unit in PER_LAYER:
        if function is not None:
            value = stats.get(function, {}).get(statistic, 0)
        elif name == "tracing_overhead_ratio":
            value = traced_s / untraced_s
        else:
            points = [s.work for s in spans if s.name == "engine.build_rate_trace"]
            useful = [
                s.work
                for s in spans
                if s.name == "engine.build_rate_trace"
                and (None if s.parent is None else spans[s.parent].name) in USEFUL_TRACE_PARENTS
            ]
            # no trace points at all: nothing was thrown away
            value = sum(useful) / sum(points) if points else 1.0
        out[name] = {"value": value, "unit": unit}
    return out, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("crossover", "sweep", "pointwise", "traces"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "becqubit" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'becqubit'}; run from a source checkout", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blas = cap_blas_threads(nproc)
    sys.path[:0] = [str(SRC), str(HERE)]

    first_setup, data, state = time_setup(args.workload, args.seed)
    setups = [first_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    import inputs
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    round_inputs = [data]
    round_times: list[float] = []
    call_times: list[float] = []
    failures: list[str | None] = []
    metrics: dict = {}
    stats: dict = {}

    if args.trace:
        untraced_s, _, fails = run_round(workload, state)
        failures += fails
        spans = tracer.Tracer()
        traced_s, _, fails = run_round(workload, state, spans)
        failures += fails
        metrics, stats = per_layer_metrics(spans.spans, traced_s, untraced_s)
        round_times = [untraced_s, traced_s]
    else:
        while True:
            seconds, calls, fails = run_round(workload, state)
            round_times.append(seconds)
            call_times += [c.seconds for c in calls]
            failures += fails
            if sum(round_times) + statistics.median(round_times) > args.seconds:
                break
            data = inputs.generate(args.workload, args.seed, len(round_times))
            round_inputs.append(data)
            state = workload.setup(data)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setups),
            "round_s": statistics.median(round_times),
            "call_p50_ms": 1e3 * percentile(call_times, 0.5),
            "call_p90_ms": 1e3 * percentile(call_times, 0.9),
            "peak_rss_mb": rss_kib / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    failed = sum(f is not None for f in failures)
    import numpy
    import scipy

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(round_inputs) if not args.trace else 1,
        "round_s": round_times,
        "setup_samples_s": setups,
        "calls": len(call_times),
        "inputs_digest": inputs.digest(round_inputs),
        "failure_rate": failed / len(failures),
        "git_sha": git_sha(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
    }
    for name, stat in sorted(stats.items()):
        print(
            f"layer {name}: calls={stat['calls']} work={stat['work']} "
            f"total_s={stat['total_s']:.6f} self_s={stat['self_s']:.6f}"
        )
    for reason in [f for f in failures if f is not None][:10]:
        print(f"FAILED: {reason}")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"metric failure_rate = {meta['failure_rate']:.6g} ({failed}/{len(failures)})")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(failures), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
