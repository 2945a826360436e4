"""The benchmark's own schema self-check runs clean; no timing assertions."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          capture_output=True, text=True, timeout=900, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke: all checks passed" in done.stdout
