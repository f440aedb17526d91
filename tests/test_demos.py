"""Every walkthrough in demos/ runs to completion against the sources."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # Demos write their classrooms under the temporary directory. In
    # development mode, with every warning an error, a deprecated call
    # fails the demo; a file left open is reported as an exception ignored
    # in its finalizer, which leaves the exit status alone.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    env = {k: v for k, v in env.items() if not k.startswith("BLOCKMINE_")}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Exception ignored" not in proc.stderr, proc.stderr
