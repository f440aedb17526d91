"""Measure the spread of the benchmark and record the baseline.

    python3 perfbench/baseline.py [--write]

Runs `run.py --trace 0` once per seed in SEEDS on every workload and
prints, per end-to-end metric, the median, the quartiles and the spread:
the distance between the quartiles as a share of the median. It fails when
a spread reaches a third of the metric's bound.

With --write it also makes one traced run per workload for the per-layer
split, runs the scale probe, and writes everything to baseline.json.

The scale probe runs the mutant-class shape once at 150 and at 300
projects in a child capped at run.CHILD_MEMORY_BYTES of address space and
records "completed" with the child's peak RSS, or the failure ("oom",
"timeout"). It is not a timed workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from classroom import write_classroom  # noqa: E402
from workloads import DATASET, WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
PROBE_PROJECTS = (150, 300)
# Per-layer times that are not stages of the traced pipeline.
NOT_STAGES = {"cli.import_s", "corpus.generate_s", "trace.overhead_s"}


def bench(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{name} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0, "values": values,
    }


def probe(projects: int) -> dict:
    shape = replace(WORKLOADS["mutant-class"].shape, projects=projects)
    directory = HERE / "work" / f"probe-{projects}"
    shutil.rmtree(directory, ignore_errors=True)
    write_classroom(shape, 1, directory / DATASET)
    result = run.child("run", "mutant-class", str(directory))
    shutil.rmtree(directory)
    if "error" in result:
        return {"projects": projects, "result": result["error"]}
    return {
        "projects": projects, "result": "completed",
        "wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    steady = True
    document = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = [bench(name, seed, spec["run_seconds"], 0) for seed in document["seeds"]]
        if set(runs[0]) != set(bounds):
            raise SystemExit(f"{name}: end-to-end metrics {sorted(runs[0])} != BENCHMARK.json")
        entry = {"shape": asdict(WORKLOADS[name].shape), "argv": list(WORKLOADS[name].argv)}
        entry["end_to_end"] = {m: summary([r[m] for r in runs]) for m in sorted(bounds)}
        for metric, s in entry["end_to_end"].items():
            ok = s["spread"] < bounds[metric] / 3
            steady &= ok
            print(
                f"{name:13s} {metric:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}"
                f"  q3 {s['q3']:10.4f}  spread {s['spread']:.3f} (bound {bounds[metric]})"
                f"{'' if ok else '  TOO WIDE'}",
                flush=True,
            )
        if args.write:
            traced = bench(name, 1, spec["run_seconds"], 1)
            if set(traced) != per_layer:
                raise SystemExit(f"{name}: per-layer metrics differ from BENCHMARK.json")
            stages = {k: v for k, v in traced.items() if k.endswith("_s") and k not in NOT_STAGES}
            total = sum(stages.values())
            entry["per_layer"] = traced
            entry["stage_share"] = {k: round(v / total, 4) for k, v in stages.items()}
            entry["properties.distinct_ratio"] = traced["properties.distinct_ratio"]
        document["workloads"][name] = entry
    if args.write:
        document["scale_probe"] = [probe(n) for n in PROBE_PROJECTS]
        print(json.dumps(document["scale_probe"]))
        (HERE / "baseline.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
