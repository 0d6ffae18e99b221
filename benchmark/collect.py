#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmark/collect.py --seeds 1-10 --out results.json
    python3 benchmark/collect.py --workloads crossover --seeds 1-5 --trace 1

Runs BENCHMARK.json's command once per (workload, seed), one run at a time,
and reports per workload and metric the median, the quartiles and the
spread (q3 - q1) / median that the acceptance rule bounds.  The raw result
and meta line of every run go in the output file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), {})
    return json.loads(lines[-1]), meta, time.perf_counter() - start


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write raw runs and summary as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, meta, wall = run_once(spec, workload, seed, args.trace)
            runs.append({"seed": seed, "result": result, "meta": meta, "wall_s": wall})
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} rounds={meta.get('rounds')} wall={wall:.1f}s {values}", file=sys.stderr, flush=True)
        metric_names = runs[0]["result"]["metrics"].keys()
        summary = {
            name: summarise([r["result"]["metrics"][name]["value"] for r in runs]) for name in metric_names
        }
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound and s["spread"] is not None:
                flag = "  (over a third of the bound)" if s["spread"] > bound / 3 else ""
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:10s} {name:45s} median {s['median']:.6g}  spread {spread}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}", flush=True)
        report["workloads"][workload] = {
            "summary": summary,
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "runs": runs,
        }
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
