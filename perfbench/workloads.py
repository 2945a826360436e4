"""Workloads: seeded inputs, the op each one times, and the check of its output.

Why each workload was chosen, and which layer it stresses and bypasses, is
in BENCHMARK.json.  A workload is a fixed list of inputs, each with the op
that runs on it; the benchmark cycles through the list and takes one
latency per input, so every run weighs the same mix of sizes and variants
alike wherever the clock stopped.  Inputs come from the workload seed through numpy Philox streams and the ``synth`` generators; the
library receives only the finished matrices.  ``add_noise`` is not used: it
runs a cut norm, which would put solver work into set-up.

Ops call the library through the package namespace at call time, so the
wrappers ``tracing.py`` installs there are seen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import zlib

import numpy as np

import robinson_lab as rl
from robinson_lab import core

# Region diagnostics on approx_large: thresholds per unit value and raster.
REGION_LEVELS = 4
REGION_RASTER = 256

# Share of reported numbers that are exact at the commit that defined the
# benchmark.  A run below its floor is incorrect, so a speed-up cannot come
# from trading an exact solver for a heuristic one.
CERTIFIED_FLOOR = {
    "recover_mid": 4 / 75,
    "approx_large": 0.0,
}

# Percentile of the per-input latencies reported as op_tail_s, fixed so that
# every commit is compared at the same one.  On recover_mid's 20 inputs p50
# is the highest with ten inputs beyond it.  approx_large's 5 inputs leave
# fewer than ten beyond any percentile; it reports p90 (mostly the slowest
# input).
TAIL_PERCENTILE = {
    "recover_mid": 50.0,
    "approx_large": 90.0,
}

# Host-speed calibration (see run.py): rows of the kernel's 64-column arrays,
# about the size of the arrays the workload's ops work on (recover_mid's are
# small, approx_large's 8 to 33 MB), and the kernel's time in seconds on a
# 2-vCPU Xeon VM, the scale that makes adjusted times read as seconds.
CALIBRATION = {
    "recover_mid": (4096, 0.016),
    "approx_large": (32768, 0.16),
}

_RECOVER_SIZES = (16, 20, 24, 32, 40)
# (n, alpha, grid_n); grid_n None means the kernel's own resolution
_APPROX_CASES = ((128, 0.2, None), (128, 0.1, None), (64, 0.2, 256),
                 (32, 0.2, 512), (160, 0.2, None))


@dataclasses.dataclass(frozen=True)
class Op:
    label: str
    kind: str              # "recover", "recover_bounded" or "approx_regions"
    w: rl.StepGraphon
    kwargs: dict


@dataclasses.dataclass
class Checked:
    problems: list         # empty when the output verified
    numbers: int           # numbers the op reports
    exact: int             # of those, how many are exact rather than bounds
    digest: bytes          # sha256 of output bytes and reported values
    timings: dict          # RecoveryReport.timings, empty for other ops


def _noisy_toeplitz(rng, n, offset, noise):
    """Toeplitz decay kernel plus an offset and uniform symmetric noise."""
    base = rl.toeplitz_decay(n, seed=int(rng.integers(2 ** 32)))
    iu = np.triu_indices(n)
    unit = np.zeros((n, n))
    unit[iu] = rng.uniform(-1.0, 1.0, size=iu[0].size)
    unit = np.triu(unit) + np.triu(unit, 1).T
    return rl.StepGraphon(base.values + offset + noise * unit)


def build(name, seed):
    """The ops of workload ``name``, one per input, reproducible from ``seed``."""
    rng = np.random.Generator(np.random.Philox([int(seed), zlib.crc32(name.encode())]))
    ops = []
    if name == "recover_mid":
        # recover on 3 of every 4 ops, recover_bounded on the 4th; 20 ops
        # cover every size with both variants
        for k in range(20):
            n = _RECOVER_SIZES[k % len(_RECOVER_SIZES)]
            kind = "recover_bounded" if k % 4 == 3 else "recover"
            kwargs = {} if kind == "recover_bounded" else {"p": 6.0}
            ops.append(Op("%s n=%d" % (kind, n), kind, _noisy_toeplitz(rng, n, 3.0, 0.3), kwargs))
    elif name == "approx_large":
        for n, alpha, g in _APPROX_CASES:
            label = "approx n=%d alpha=%g g=%d" % (n, alpha, g or n)
            ops.append(Op(label, "approx_regions", _noisy_toeplitz(rng, n, 0.3, 0.3),
                          {"alpha": alpha, "grid_n": g}))
    else:
        raise ValueError("unknown workload %r" % name)
    return ops


def call(op):
    """The timed part of an op."""
    if op.kind == "recover":
        return rl.recover(op.w, **op.kwargs)
    if op.kind == "recover_bounded":
        return rl.recover_bounded(op.w, **op.kwargs)
    ra = rl.robinson_approx(op.w, op.kwargs["alpha"], grid_n=op.kwargs["grid_n"])
    rm = rl.compute_regions(op.w, REGION_LEVELS, op.kwargs["alpha"], raster=REGION_RASTER)
    return ra, rm


def _default_cutnorm_cap(fn):
    return inspect.signature(fn).parameters["cutnorm_cap"].default


_DEFAULT_CAP = {"recover": _default_cutnorm_cap(rl.recover),
                "recover_bounded": _default_cutnorm_cap(rl.recover_bounded)}


def _check_approx(approx, grid_n, problems):
    vals = approx.values
    if vals.shape != (grid_n, grid_n):
        problems.append("approximation shape %s, expected %d x %d" % (vals.shape, grid_n, grid_n))
    if not np.all(np.isfinite(vals)) or vals.min() < 0:
        problems.append("approximation has a negative or non-finite entry")
    elif not core.is_robinson(approx.as_graphon(), 1e-12).robinson:
        problems.append("approximation is not Robinson")


def check(op, out):
    """Verify an op's output outside the timed region."""
    problems = []
    h = hashlib.sha256()
    if op.kind == "approx_regions":
        ra, rm = out
        _check_approx(ra, op.kwargs["grid_n"] or op.w.n, problems)
        if not (math.isfinite(ra.alpha) and ra.alpha > 0):
            problems.append("window width %r" % ra.alpha)
        if not rl.verify_partition(rm):
            problems.append("region map fails its partition audit")
        for arr in (ra.values, rm.k_high, rm.k_low, rm.value_high, rm.value_low):
            h.update(arr.tobytes())
        h.update(json.dumps([ra.mode, ra.alpha, ra.grid_n, rm.m, rm.level_max]).encode())
        return Checked(problems, 1, int(ra.mode == "exact"), h.digest(), {})

    approx, rep = out
    _check_approx(approx, op.kwargs.get("grid_n") or op.w.n, problems)
    reported = {"alpha": rep.alpha, "normalizationScale": rep.normalization_scale,
                "M": rep.cutoff_threshold, "lambdaW": rep.deviation_input,
                "lambdaWM": rep.deviation_cutoff, "theoreticalBound": rep.theory_bound,
                "measuredError": rep.measured_error}
    for key, val in reported.items():
        if val is not None and not (math.isfinite(val) and val >= 0):
            problems.append("%s = %r is not a finite nonnegative number" % (key, val))
    # the dispatcher enumerates exactly only up to the cap in effect, so an
    # exact claim above it says more than was computed
    cap = _DEFAULT_CAP[op.kind]
    common = math.lcm(op.w.n, approx.grid_n)
    if rep.measured_error_exact and common > cap:
        problems.append("exact cut norm claimed on a %d-cell grid above cap %d" % (common, cap))
    h.update(approx.values.tobytes())
    fields = {k: v for k, v in rep.to_dict().items() if k != "timings"}
    h.update(json.dumps(fields, sort_keys=True).encode())
    deviations = 1 if rep.deviation_cutoff is None else 2
    exact = (deviations * (rep.deviation_mode == "exact")
             + int(rep.measured_error_exact) + int(rep.approx_mode == "exact"))
    return Checked(problems, deviations + 2, exact, h.digest(), dict(rep.timings))
