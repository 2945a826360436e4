"""Benchmark of the robinson_lab pipelines: one process, one closed-loop client.

    python3 perfbench/run.py --workload recover_mid --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

It benchmarks the library under ``src/`` of the checkout it sits in.
Each op starts only when the previous one has returned.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op once
untraced and once traced and prints the per-layer metrics (see
``tracing.py``).

Ops run round-robin over the workload's inputs (see ``workloads.py``): one
whole round always, then op by op while the next op is expected to end
within ``--seconds``.  Each input's latency is the median of its timed runs,
and the end-to-end metrics are taken over those per-input latencies, one per
input, so a run that stops part-way through a round weighs every input
alike and one slow op moves a metric by one input's share at most.

The times of the end-to-end metrics are host-speed-adjusted seconds.  On a
shared host the same op on the same input runs up to half again as long
from one second to the next, in CPU time as much as in wall time, because
co-tenants slow the core and its memory.  So a fixed calibration kernel that
does not use the library (``HostSpeed``) runs between consecutive ops, and
each op's wall time is scaled by the workload's reference kernel time over
the mean of the kernel times measured just before and just after it: a
value is the seconds the op would take on a host where the kernel takes its
reference time.  Set-up time is scaled by the median of three kernel runs
taken right after it.  A slower or faster library moves the op times and
leaves the kernel alone, so it moves these metrics as it moves wall time.
The report prints the wall-clock values and the kernel times beside them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.
"""

import time

# setup_s runs from here to the end of the untimed warm-up op: importing the
# library, building the inputs and one op
_PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy is imported so that neither an inherited
# variable nor the host's core count changes it.
BLAS_THREADS = 1
BLAS_THREADS_WHY = ("one closed-loop client on a shared machine: a single BLAS "
                    "thread keeps timings independent of the host's core count "
                    "and of co-tenant load, and keeps float reductions in one order")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 2          # extra set-ups in fresh processes, for a median of 3
PROBE_TIMEOUT_S = 150


def parse_args(workload_names, argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workload_names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run one op of each kind and a single set-up (schema check)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    """Import robinson_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "robinson_lab" / "__init__.py").is_file():
        raise SystemExit("benchmark: no library at %s" % (SRC / "robinson_lab"))
    sys.path.insert(0, str(SRC))
    import robinson_lab
    if not Path(robinson_lab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("benchmark: imported robinson_lab from %s" % robinson_lab.__file__)


def blas_record():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    effective = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    effective = fn()
                    break
    except OSError:
        pass
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_set": BLAS_THREADS, "threads_effective": effective,
            "threads_why": BLAS_THREADS_WHY}


def git_record():
    if not (ROOT / ".git").exists():
        return {"rev": "unknown (not a git checkout)", "dirty": None}

    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30, check=True).stdout
    try:
        return {"rev": git("rev-parse", "HEAD").strip(), "dirty": bool(git("status", "--porcelain").strip())}
    except (OSError, subprocess.SubprocessError) as exc:
        return {"rev": "unknown (%s)" % exc, "dirty": None}


def env_record():
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_record(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "git": git_record()}


class HostSpeed:
    """Times a fixed kernel shaped like the library's batched numpy work: a
    matrix product, a row-wise argsort, a gather and a scatter along rows and
    a cumulative sum over ``rows`` x 64 arrays.  Each workload sets ``rows``
    so that the kernel's arrays are about as large as its ops' arrays, and
    so wait on the same caches and memory.  A sample is the faster of two
    back-to-back runs, so a page fault or a burst of co-tenant load inside
    one run does not count as a slower host.  Its inputs are constants,
    independent of the library and the workload's inputs."""

    def __init__(self, rows):
        import numpy as np
        rng = np.random.Generator(np.random.Philox(0))
        self._np = np
        self._x = rng.random((rows, 64))
        self._m = rng.random((64, 64))
        self.samples = []

    def _once(self):
        np = self._np
        t0 = time.perf_counter()
        order = np.argsort(self._x @ self._m, axis=1, kind="stable")
        picked = np.take_along_axis(self._x, order, axis=1)
        fill = np.clip(20.0 - np.cumsum(picked, axis=1), 0.0, picked)
        np.put_along_axis(np.empty_like(fill), order, fill, axis=1)
        return time.perf_counter() - t0

    def measure(self):
        dt = min(self._once(), self._once())
        self.samples.append(dt)
        return dt


def setup_probe_samples(args):
    """(adjusted, wall) set-up seconds of fresh processes doing the same
    set-up as this one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + done.stderr)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["setup_wall_s"]))
    return samples


class Run:
    """Latencies, checks and digests of the ops one run executes."""

    def __init__(self, workloads, host, cal_ref_s):
        self.wl = workloads
        self.host = host
        self.cal_ref_s = cal_ref_s
        self.cal_last = None             # kernel time measured after the last op
        self.wall = collections.defaultdict(list)      # input -> untraced wall seconds
        self.adjusted = collections.defaultdict(list)  # the same, host-speed-adjusted
        self.traced_s = self.untraced_s = 0.0
        self.timed = 0                   # untraced ops
        self.attempted = self.failed = 0
        self.numbers = self.exact = 0    # over the first run of each input
        self.first_digest = {}           # input -> digest of its first output
        self.stage_s = collections.Counter()
        self.problems = []

    def execute(self, idx, op, tracer=None):
        """Time one op on input ``idx``, then verify its output outside the
        timed region."""
        self.attempted += 1
        problems = []
        out = None
        cal_before = self.cal_last if self.cal_last is not None else self.host.measure()
        t0 = time.perf_counter()
        try:
            with tracer.op() if tracer else contextlib.nullcontext():
                out = self.wl.call(op)
        except Exception:                  # one failed op must not end the run
            problems.append(traceback.format_exc())
        dt = time.perf_counter() - t0
        self.cal_last = self.host.measure()
        if tracer is None:
            self.wall[idx].append(dt)
            self.adjusted[idx].append(dt * self.cal_ref_s / (0.5 * (cal_before + self.cal_last)))
            self.untraced_s += dt
            self.timed += 1
        else:
            self.traced_s += dt
        if out is not None:
            if tracer is not None:
                problems += tracer.fold(out)
            checked = self.wl.check(op, out)
            problems += checked.problems
            first = idx not in self.first_digest
            if checked.digest != self.first_digest.setdefault(idx, checked.digest):
                problems.append("output differs from an earlier run of the same input")
            if first:
                self.numbers += checked.numbers
                self.exact += checked.exact
            if tracer is None:
                self.stage_s.update(checked.timings)
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (op.label, "; ".join(problems)))

    def per_input(self, samples):
        """Sorted per-input latencies: the median of each input's runs."""
        return sorted(statistics.median(v) for v in samples.values())

    def outputs_sha256(self):
        h = hashlib.sha256()
        for idx in sorted(self.first_digest):
            h.update(self.first_digest[idx])
        return h.hexdigest()

    def certified_frac(self):
        return self.exact / self.numbers if self.numbers else 0.0


def percentile(values, pct):
    """Harrell-Davis estimate of the ``pct`` percentile of sorted ``values``:
    the mean of all order statistics, weighted by the Beta((n+1)p, (n+1)(1-p))
    probability of each rank's interval (integrated by the midpoint rule).
    A single order statistic jumps when inputs of different sizes trade
    ranks; this estimate moves smoothly.  p100 is the maximum."""
    import numpy as np
    n = len(values)
    p = pct / 100.0
    if n == 1 or p >= 1.0:
        return values[-1]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = (np.arange(1000 * n) + 0.5) / (1000 * n)
    weight = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)).reshape(n, 1000).sum(axis=1)
    return float(weight @ np.asarray(values) / weight.sum())


def run_workload(args, spec):
    import_library()
    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed)
    workloads.call(ops[0])                        # untimed warm-up op
    setup_wall_s = time.perf_counter() - _PROCESS_START
    cal_rows, cal_ref_s = workloads.CALIBRATION[args.workload]
    host = HostSpeed(cal_rows)
    setup_s = setup_wall_s * cal_ref_s / statistics.median(host.measure() for _ in range(3))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    try:
        tracer = tracing.Tracer() if args.trace else None
    except LookupError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 3
    setup = [(setup_s, setup_wall_s)]
    if not args.trace and not args.smoke:
        setup += setup_probe_samples(args)

    if args.smoke:          # the first op of each kind reaches every traced layer
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        ops = list(first.values())
    run = Run(workloads, host, cal_ref_s)
    deadline = time.perf_counter() + args.seconds
    cost = [0.0] * len(ops)        # wall time of the last round on each input, checks included
    k = 0
    while True:
        idx = k % len(ops)
        now = time.perf_counter()
        if k >= len(ops) and (args.smoke or now + cost[idx] > deadline):
            break
        run.execute(idx, ops[idx])
        if tracer is not None:
            run.execute(idx, ops[idx], tracer)
        cost[idx] = time.perf_counter() - now
        k += 1

    mismatches = 0
    if tracer is not None:
        missing = tracer.missing_spans(args.workload)
        if missing:
            print("benchmark: traced run saw no call of %s; a traced binding is no longer "
                  "on the call path" % ", ".join(missing), file=sys.stderr)
            return 3
        mismatches = (tracer.count["deviation.witness_mismatch"]
                      + tracer.count["cutnorm.witness_mismatch"])

    problems = list(run.problems)      # witness mismatches fail their op too
    certified = run.certified_frac()
    floor = workloads.CERTIFIED_FLOOR[args.workload]
    if certified < floor - 1e-12:
        problems.append("certified_frac %.6f is below the floor %.6f" % (certified, floor))

    lat = run.per_input(run.adjusted)
    wall = run.per_input(run.wall)
    tail_pct = workloads.TAIL_PERCENTILE[args.workload]
    out = {}
    print("workload %s  seed %d  trace %d%s" % (args.workload, args.seed, args.trace,
                                               "  smoke" if args.smoke else ""))
    print("  why: %s" % {w["name"]: w["why"] for w in spec["workloads"]}[args.workload])
    print("  env: %s" % json.dumps(env_record()))
    print("  ops: %d attempted on %d inputs, %d failed; outputs_sha256 %s"
          % (run.attempted, len(ops), run.failed, run.outputs_sha256()))
    if args.trace:
        out.update(tracer.metrics())
        for stage in ("normalize", "deviation", "cutoff", "approx", "measureError"):
            out["recovery.stage.%s_s" % stage] = run.stage_s[stage] / run.timed
        out["trace.overhead_frac"] = run.traced_s / run.untraced_s - 1.0
        print("  traced op time %.6f s/op; self time share by layer:" % (run.traced_s / tracer.ops))
        shares = tracer.layer_self_s()
        for layer, sec in sorted(shares.items(), key=lambda kv: -kv[1]):
            print("    %-10s %6.2f%%" % (layer, 100.0 * sec / run.traced_s))
        print("  spans (calls/op, self s/op):")
        for name, calls, sec in tracer.span_table():
            print("    %-30s %9.2f %12.6f" % (name, calls, sec))
    else:
        ok = (run.attempted - run.failed) / run.attempted
        out["setup_s"] = statistics.median(s for s, _ in setup)
        out["ops_per_s"] = ok * len(lat) / sum(lat)
        out["op_p50_s"] = percentile(lat, 50.0)
        out["op_tail_s"] = percentile(lat, tail_pct)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("  setup_s is the median of %d set-ups: %s"
              % (len(setup), ", ".join("%.4f" % s for s, _ in setup)))
        print("  op_tail_s is p%g of %d per-input latencies (medians of %d timed ops)"
              % (tail_pct, len(lat), run.timed))
        print("  wall clock: setup_s %.4f, ops_per_s %.6g, op_p50_s %.6g, op_tail_s %.6g"
              % (statistics.median(w for _, w in setup), ok * len(wall) / sum(wall),
                 percentile(wall, 50.0), percentile(wall, tail_pct)))
        print("  calibration kernel: median %.6f s over %d runs (reference %g s)"
              % (statistics.median(host.samples), len(host.samples), cal_ref_s))
    # Both are exactly 0 on some workload, where a relative bound is undefined,
    # so BENCHMARK.json lists them as per-layer metrics; the report always
    # prints them, and a run below its certified floor is incorrect.
    out["failed_frac"] = run.failed / run.attempted
    out["certified_frac"] = certified
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in out:
            print("  %-32s %16.6g %-10s (%s is better)"
                  % (m["name"], out[m["name"]], m["unit"], m["better"]))
    for problem in problems:
        print("benchmark: %s" % problem, file=sys.stderr)
    result = {"correct": not problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": {m["name"]: {"value": out[m["name"]], "unit": m["unit"]}
                          for m in spec["per_layer" if args.trace else "end_to_end"]}}
    print(json.dumps(result))
    return 0 if mismatches == 0 else 4


def run_all(args, workload_names):
    """Run each workload in its own process, so peak memory stays per workload."""
    status = 0
    for name in workload_names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(names, argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
