"""One measured step in a fresh interpreter; prints one JSON line.

    child.py setup WORKLOAD SEED DIR   write the seeded classroom into DIR
    child.py run WORKLOAD DIR          one timed `blockmine.cli.main` run
    child.py trace WORKLOAD DIR SPANS  the traced run; spans go to SPANS

DIR holds the classroom under workloads.DATASET; run and trace write the
report to DIR/report.out.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

REPORT = "report.out"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(workload_name: str, seed: int, directory: Path) -> dict:
    t0 = perf_counter()
    import blockmine

    t1 = perf_counter()
    blockmine.table_version()
    t2 = perf_counter()
    from classroom import write_classroom
    from workloads import DATASET, WORKLOADS

    dataset = directory / DATASET
    t3 = perf_counter()
    students = write_classroom(WORKLOADS[workload_name].shape, seed, dataset)
    t4 = perf_counter()
    digest = hashlib.sha256()
    size = 0
    for path in sorted(dataset.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return {
        "setup_s": (t2 - t0) + (t4 - t3),
        "import_s": t1 - t0,
        "generate_s": t4 - t3,
        "archives": len(students),
        "archive_bytes": size,
        "digest": digest.hexdigest(),
        "mutants": [s.project_id for s in students if s.edits],
        "exit": 0,
    }


def run(workload_name: str, directory: Path) -> dict:
    from blockmine.cli import main
    from workloads import WORKLOADS

    argv = WORKLOADS[workload_name].cli_argv(REPORT)
    os.chdir(directory)
    t0 = perf_counter()
    code = main(argv)
    wall = perf_counter() - t0
    return {"exit": code, "wall_s": wall, "peak_rss_mb": _peak_rss_mb()}


def trace(workload_name: str, directory: Path, spans: Path) -> dict:
    from tracing import traced_run
    from workloads import WORKLOADS

    os.chdir(directory)
    counts, tracer = traced_run(WORKLOADS[workload_name], REPORT, run_id=workload_name)
    tracer.write(spans)
    times = {f"{name}_s": value for name, value in tracer.self_times().items()}
    wall = next(s["end"] - s["start"] for s in tracer.spans if s["name"] == "cli")
    return {"exit": 0, "wall_s": wall, "peak_rss_mb": _peak_rss_mb(), **times, **counts}


def main(argv: list[str]) -> int:
    step, workload_name, *rest = argv
    if step == "setup":
        result = setup(workload_name, int(rest[0]), Path(rest[1]))
    elif step == "run":
        result = run(workload_name, Path(rest[0]))
    elif step == "trace":
        result = trace(workload_name, Path(rest[0]), Path(rest[1]).resolve())
    else:
        raise SystemExit(f"unknown step {step!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
