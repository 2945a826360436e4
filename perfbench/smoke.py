"""Self-check of the benchmark's output schema; makes no timing assertions.

    python3 perfbench/smoke.py

Runs every workload BENCHMARK.json lists in smoke mode (one op of each kind,
one set-up) with tracing off and on, and checks that each run verifies its
outputs and prints every listed metric with its unit, and that every metric
states its direction.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 300


def require(cond, message):
    if not cond:
        raise SystemExit("smoke: " + message)


def check_run(spec, workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    what = "%s trace %d" % (workload, trace)
    require(done.returncode == 0, "%s exited %d:\n%s" % (what, done.returncode, done.stderr))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, what + ": result keys")
    require(result["correct"] is True and result["failed"] == 0, what + ": outputs did not verify")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, what + ": attempted")
    listed = spec["per_layer" if trace else "end_to_end"]
    require(set(result["metrics"]) == {m["name"] for m in listed}, what + ": metric names")
    for m in listed:
        entry = result["metrics"][m["name"]]
        require(entry["unit"] == m["unit"],
                "%s: %s has unit %r, expected %r" % (what, m["name"], entry["unit"], m["unit"]))
        value = entry["value"]
        require(isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value), "%s: %s = %r is not a finite number" % (what, m["name"], value))
    print("ok  %-14s trace %d  %d ops" % (workload, trace, result["attempted"]))


def main():
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    for m in spec["end_to_end"] + spec["per_layer"]:
        require(m["better"] in ("higher", "lower"), "%s has no direction" % m["name"])
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
