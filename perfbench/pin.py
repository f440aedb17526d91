"""Write pins.json: the reports of the current code, per workload and seed.

    python3 perfbench/pin.py

For each workload it writes the classroom of every seed, runs the CLI on
it in this process, and records the sha256 of the report bytes. It fails
if the seed-independent digest (checks.invariant_digest) differs between
seeds. Run it only at a commit whose reports are known to be right: every
later benchmark run compares against these pins. Like the benchmark's
children, it ignores the BLOCKMINE_* environment variables, so the pins
hold the default configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from blockmine.cli import main as cli_main  # noqa: E402

from checks import invariant_digest  # noqa: E402
from classroom import write_classroom  # noqa: E402
from workloads import DATASET, WORKLOADS  # noqa: E402

PIN_SEEDS = range(64)


def main() -> int:
    for name in [k for k in os.environ if k.startswith("BLOCKMINE_")]:
        del os.environ[name]
    work = HERE / "work" / "pin"
    pins = {}
    for workload in WORKLOADS.values():
        exact, invariant = {}, set()
        for seed in PIN_SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            write_classroom(workload.shape, seed, work / DATASET)
            os.chdir(work)
            if cli_main(workload.cli_argv("report.out")) != 0:
                raise SystemExit(f"{workload.name} seed {seed}: CLI failed")
            data = Path("report.out").read_bytes()
            os.chdir(HERE)
            exact[str(seed)] = hashlib.sha256(data).hexdigest()
            invariant.add(invariant_digest(data.decode("utf-8"), workload.is_sweep))
        if len(invariant) != 1:
            raise SystemExit(f"{workload.name}: seeds disagree on the invariant digest")
        pins[workload.name] = {"invariant": invariant.pop(), "seeds": exact}
        print(f"{workload.name}: pinned {len(exact)} seeds", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
