"""Benchmark for blockmine: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/blockmine`. The steps:

1. Set up MIN_SETUPS times and for SETUP_SECONDS at least, each time in a
   fresh interpreter: `import blockmine`, the first `table_version()`, and
   writing the seeded classroom. All the classrooms must be byte-identical;
   `setup_s` is the median.
2. Timed runs, each `blockmine.cli.main` in a fresh interpreter, until S
   seconds have passed and, unless a run failed, MIN_RUNS runs are done.
   `wall_s` and `peak_rss_mb` are the medians over the runs.
3. Output checks: every report must equal the first one and the pinned
   sha256 (the seed-independent digest, and the exact bytes where the seed
   is pinned), and the first must pass the brute-force checks in checks.py.
   A failed check fails the runs and makes the command exit 1.
4. With --trace 1, one more fresh interpreter runs the traced pipeline
   (tracing.py); its output must equal the untraced report. The result
   then holds the per-layer metrics instead of the end-to-end ones.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
# Set-up repeats until both limits are reached; the median is reported.
MIN_SETUPS = 5
SETUP_SECONDS = 4.0
MIN_RUNS = 3
MAX_RUNS = 50
CHILD_TIMEOUT_S = 60
# Address-space cap for every child, so a runaway run fails with a
# MemoryError instead of exhausting a shared machine.
CHILD_MEMORY_BYTES = 2 << 30


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def child(*args: str) -> dict:
    """Run child.py in a fresh interpreter and return its JSON line.

    On failure the result holds only "error": "timeout", "oom" (the child
    hit its address-space cap) or "failed".
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("BLOCKMINE_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        print(f"child {args[:2]} timed out", file=sys.stderr)
        return {"error": "timeout"}
    if proc.returncode != 0:
        print(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return {"error": "oom" if "MemoryError" in proc.stderr else "failed"}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result if result.get("exit") == 0 else {"error": "failed"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "blockmine" / "__init__.py").is_file():
        print(f"no blockmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from checks import check_mine_report, check_sweep_csv, invariant_digest, script_properties
    from child import REPORT
    from workloads import DATASET, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pins = json.loads((HERE / "pins.json").read_text())[workload.name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    def finish(metrics: dict, attempted: int, failed: int) -> int:
        """Print the result line; metrics that were not measured read 0."""
        if failed == 0 and set(metrics) != {m["name"] for m in listed}:
            failed += 1
            print("measured metrics differ from BENCHMARK.json", file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in listed
            },
        }))
        return 0 if failed == 0 else 1

    def setup_failed() -> int:
        # No run can be made without a classroom: the set-up is the one
        # operation attempted, and it failed.
        return finish({"fail_ratio": 1.0}, attempted=1, failed=1)

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    setups = []
    start = perf_counter()
    while len(setups) < MIN_SETUPS or perf_counter() - start < SETUP_SECONDS:
        directory = work / f"setup{len(setups)}"
        result = child("setup", workload.name, str(args.seed), str(directory))
        if "error" in result:
            return setup_failed()
        if setups:
            shutil.rmtree(directory)
        setups.append(result)
    if len({s["digest"] for s in setups}) != 1:
        print("setup wrote different classrooms for the same seed", file=sys.stderr)
        return setup_failed()
    run_dir = work / "setup0"

    exact = pins["seeds"].get(str(args.seed))

    def pinned(data: bytes) -> bool:
        return (exact is None or hashlib.sha256(data).hexdigest() == exact) and (
            invariant_digest(data.decode("utf-8"), workload.is_sweep) == pins["invariant"]
        )

    runs, failed, first = [], 0, None
    start = perf_counter()
    while len(runs) + failed < MAX_RUNS and (
        perf_counter() - start < args.seconds or (len(runs) < MIN_RUNS and not failed)
    ):
        result = child("run", workload.name, str(run_dir))
        if "error" not in result:
            data = (run_dir / REPORT).read_bytes()
            first = data if first is None else first
            if data == first and pinned(data):
                runs.append(result)
                continue
            print("report differs from the first run or from the pinned sha256", file=sys.stderr)
        failed += 1

    problems = ["no run wrote a report"]
    if first is not None:
        text = first.decode("utf-8")
        if workload.is_sweep:
            problems = check_sweep_csv(text)
        else:
            mutants = set(setups[0]["mutants"]) if workload.shape.single_edit_mutants else None
            problems = check_mine_report(text, script_properties(run_dir / DATASET), mutants)
    if problems:
        failed += len(runs)
        runs = []
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    attempted = len(runs) + failed
    median = statistics.median(r["wall_s"] for r in runs) if runs else 0.0
    if args.trace:
        attempted += 1
        traced = child("trace", workload.name, str(run_dir), str(work / "spans.jsonl"))
        if "error" in traced or first is None or (run_dir / REPORT).read_bytes() != first:
            failed += 1
            print("traced run failed or its output differs from the CLI report", file=sys.stderr)
            traced = {}
        metrics = {k: v for k, v in traced.items() if k not in ("exit", "wall_s", "peak_rss_mb", "cli_s")}
        metrics.update({
            "fail_ratio": failed / attempted,
            "corpus.generate_s": statistics.median(s["generate_s"] for s in setups),
            "corpus.archives": setups[0]["archives"],
            "corpus.archive_bytes": setups[0]["archive_bytes"],
            "cli.import_s": statistics.median(s["import_s"] for s in setups),
            "trace.overhead_s": traced.get("wall_s", 0.0) - median,
        })
        for name in ("anomalies.rank_s", "anomalies.sweep_s", "report.stats_s"):
            metrics.setdefault(name, 0.0)
    else:
        metrics = {
            "wall_s": median,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs) if runs else 0.0,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
    return finish(metrics, attempted, failed)


if __name__ == "__main__":
    sys.exit(main())
