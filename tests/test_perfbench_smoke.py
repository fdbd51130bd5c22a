"""The benchmark's self-test must keep passing against the current sources.

``perfbench/run.py --smoke`` runs every workload at tiny size through a fresh
worker process, with and without tracing. It fails when the worker crashes
(for instance on a missing ``felogit.active_backend``), when a CLI payload
key the gate reads changes, or when any declared per-layer metric is no
longer emitted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "smoke: ok" in run.stdout, run.stdout + run.stderr
