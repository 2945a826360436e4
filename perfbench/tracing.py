"""Spans around calls into the library's layers, recorded from outside it.

The tracer replaces the module bindings that callers look up (for example
``robinson_lab.recovery.cut_norm``, which ``measured_cut_error`` calls) with
wrappers that record a span: name, start, end and parent; spans of one op
share the op.  A layer's self time is its span time minus the time its
child spans cover.  Wrappers are installed for one op at a time, so the
untraced ops of a traced run execute the library untouched.

Certificates seen at a boundary are recomputed after the op, outside the
timed region, and every mismatch is counted.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import importlib
import time

# (module, attribute, span name); the span name's prefix is the layer that
# holds the code
BINDINGS = (
    ("robinson_lab", "recover", "recovery.recover"),
    ("robinson_lab", "recover_bounded", "recovery.recover_bounded"),
    ("robinson_lab", "robinson_approx", "approx.robinson_approx"),
    ("robinson_lab", "compute_regions", "regions.compute_regions"),
    ("robinson_lab.recovery", "estimate_deviation", "recovery.estimate_deviation"),
    ("robinson_lab.recovery", "deviation_exact", "deviation.exact"),
    ("robinson_lab.recovery", "deviation_heuristic", "deviation.heuristic"),
    ("robinson_lab.recovery", "cutoff", "core.cutoff"),
    ("robinson_lab.recovery", "is_robinson", "core.is_robinson"),
    ("robinson_lab.recovery", "refine", "core.refine"),
    ("robinson_lab.recovery", "robinson_approx", "approx.robinson_approx"),
    ("robinson_lab.recovery", "measured_cut_error", "recovery.measured_cut_error"),
    ("robinson_lab.recovery", "cut_norm", "cutnorm.cut_norm"),
    ("robinson_lab.cutnorm", "cut_norm_exact", "cutnorm.exact"),
    ("robinson_lab.cutnorm", "cut_norm_local_search", "cutnorm.localsearch"),
    ("robinson_lab.deviation", "refine", "core.refine"),
    ("robinson_lab.approx", "ul_sup", "approx.ul_sup"),
    ("robinson_lab.approx", "monotone_envelope", "approx.monotone_envelope"),
    ("robinson_lab.approx", "is_robinson", "core.is_robinson"),
)

LAYERS = ("recovery", "deviation", "cutnorm", "approx", "regions", "core")

# Spans each workload must produce.  A binding that still exists but is no
# longer called would otherwise report an empty layer.
EXPECTED_SPANS = {
    "recover_mid": ("recovery.recover", "recovery.recover_bounded",
                    "recovery.estimate_deviation", "deviation.heuristic",
                    "core.cutoff", "core.refine", "approx.robinson_approx",
                    "approx.monotone_envelope", "core.is_robinson",
                    "recovery.measured_cut_error", "cutnorm.cut_norm",
                    "cutnorm.exact", "cutnorm.localsearch"),
    "approx_large": ("approx.robinson_approx", "approx.monotone_envelope",
                     "core.is_robinson", "regions.compute_regions"),
}


def _same(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _kernel_key(w):
    return hashlib.sha256(w.values.tobytes()).digest() + repr(w.values.shape).encode()


class Tracer:
    """Installs span-recording wrappers for one op at a time and folds each
    op's spans and certificates into per-layer totals."""

    def __init__(self):
        self._targets = []
        for modname, attr, name in BINDINGS:
            module = importlib.import_module(modname)
            if not hasattr(module, attr):
                raise LookupError("traced binding %s.%s no longer exists" % (modname, attr))
            self._targets.append((module, attr, name, getattr(module, attr)))
        self._spans = []       # [name, start, end, parent index]
        self._calls = []       # (span index, positional args, result)
        self._stack = []
        self.ops = 0
        self.self_s = collections.Counter()
        self.calls = collections.Counter()
        self.count = collections.Counter()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self._spans)
            self._spans.append([name, 0.0, 0.0, parent])
            self._stack.append(idx)
            self._spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._spans[idx][2] = time.perf_counter()
                self._stack.pop()
            self._calls.append((idx, args, result))
            return result
        return traced

    @contextlib.contextmanager
    def op(self):
        """Trace one op: the block's own time not covered by a layer span is
        the ``op`` span's self time."""
        self._spans, self._calls, self._stack = [["op", 0.0, 0.0, -1]], [], [0]
        for module, attr, name, fn in self._targets:
            setattr(module, attr, self._wrap(fn, name))
        try:
            self._spans[0][1] = time.perf_counter()
            yield
            self._spans[0][2] = time.perf_counter()
        finally:
            for module, attr, _, fn in self._targets:
                setattr(module, attr, fn)

    def fold(self, out):
        """Add the last op's spans to the totals and check its certificates
        against their witnesses and against the op's report.  Returns the
        list of mismatches found."""
        spans = self._spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child[i]
            self.self_s[name] += own
            self.calls[name] += 1
            if name == "core.is_robinson" and spans[parent][0] == "approx.robinson_approx":
                self.count["approx.validate_s"] += own
        self.ops += 1
        return self._inspect(out)

    def _inspect(self, out):
        c = self.count
        problems = []
        seen = set()
        estimates, dispatched = [], []
        for idx, args, result in self._calls:
            name = self._spans[idx][0]
            if name in ("deviation.exact", "deviation.heuristic"):
                w = args[0]
                c["deviation.grid_q"] += w.n * result.refinement
                c["deviation.value"] += result.value
                key = _kernel_key(w)
                c["deviation.repeat"] += key in seen
                seen.add(key)
                if not _same(result.recompute(w), result.value):
                    c["deviation.witness_mismatch"] += 1
                    problems.append("%s certificate does not recompute to its value" % name)
            elif name in ("cutnorm.exact", "cutnorm.localsearch"):
                w = args[0]
                if name == "cutnorm.exact":
                    c["cutnorm.subsets"] += 2 ** w.n
                if not _same(result.box_integral(w), result.value) \
                        or result.exact != (result.mode == "exact"):
                    c["cutnorm.witness_mismatch"] += 1
                    problems.append("%s witness box does not recompute to its value" % name)
            elif name == "cutnorm.cut_norm":
                dispatched.append(result)
            elif name == "recovery.estimate_deviation":
                estimates.append(result)
            elif name == "core.cutoff":
                c["cutoff.noop"] += result.exceed_measure == 0.0
            elif name == "approx.robinson_approx":
                c["approx.grid_points"] += result.grid_n * (result.grid_n + 1) // 2
                c["approx.exact"] += result.mode == "exact"
            elif name == "regions.compute_regions":
                c["regions.pixels"] += result.raster ** 2
        if estimates or dispatched:
            problems += self._match_report(out[1], estimates, dispatched)
        return problems

    def _match_report(self, rep, estimates, dispatched):
        c = self.count
        problems = []
        if not estimates or not _same(estimates[0].value, rep.deviation_input) \
                or estimates[0].mode != rep.deviation_mode \
                or (rep.deviation_cutoff is not None
                    and (len(estimates) < 2 or not _same(estimates[1].value, rep.deviation_cutoff))):
            c["deviation.witness_mismatch"] += 1
            problems.append("reported deviation differs from the certificates computed")
        if not dispatched or not _same(dispatched[-1].value, rep.measured_error) \
                or dispatched[-1].exact != rep.measured_error_exact:
            c["cutnorm.witness_mismatch"] += 1
            problems.append("reported cut-norm error differs from the cut norm computed")
        return problems

    def missing_spans(self, workload):
        return [name for name in EXPECTED_SPANS[workload] if not self.calls[name]]

    def layer_self_s(self):
        """Self time per layer and the uncovered op time, totals in seconds."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, sec in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += sec
        out["uncovered"] = self.self_s["op"]
        return out

    # Which end-to-end metric and workload each layer metric should move, and
    # where it should read "no change".  Single-threaded with no contention, a
    # faster layer saves at most its traced share of the op.
    #   deviation.heuristic_s, .calls, .grid_q_sum   ops_per_s, op_p50_s on recover_mid;
    #                                                none on approx_large
    #   deviation.repeat_input_frac                  ops_per_s on recover_mid; none on approx_large
    #   recovery.cutoff_noop_frac                    ops_per_s on recover_mid; none on approx_large
    #   deviation.exact_s, .exact_frac               certified_frac, ops_per_s on recover_mid
    #                                                (if exact dispatch widens); none on approx_large
    #   deviation.value_sum                          informational: a lower sum is a weaker certificate
    #   cutnorm.exact_s, .subsets                    ops_per_s on recover_mid (its n=16 ops, a
    #                                                small share); none on approx_large
    #   cutnorm.localsearch_s, .exact_frac, .calls   certified_frac on recover_mid; none on approx_large
    #   approx.window_sup_s, .grid_points            ops_per_s, op_p50_s, peak_rss_mb on approx_large;
    #                                                little on recover_mid
    #   approx.envelope_s, .validate_s               op_tail_s on approx_large; little on recover_mid
    #   approx.ul_sup_s, .ul_sup_calls, .exact_frac  zero on both workloads (exact window mode needs
    #                                                n <= 12 and grid <= 32); nonzero only if exact
    #                                                dispatch widens, then ops_per_s, certified_frac
    #                                                on recover_mid
    #   regions.busy_s, .calls, .pixels              op_p50_s on approx_large (about 1%, not a target)
    #   core.is_robinson_s, .is_robinson_calls,
    #   core.refine_s                                all workloads, small
    #   recovery.self_s, recovery.stage.*            op_p50_s on recover_mid; none on approx_large
    #   *.witness_mismatch                           failed_frac on all workloads
    #   trace.overhead_frac, trace.uncovered_s       none (cost and coverage of tracing)
    def metrics(self):
        """Per-layer metrics, times and counts averaged per traced op."""
        n = max(self.ops, 1)
        s, k, c = self.self_s, self.calls, self.count

        def frac(part, whole):
            return part / whole if whole else 0.0

        dev_calls = k["deviation.exact"] + k["deviation.heuristic"]
        cut_calls = k["cutnorm.exact"] + k["cutnorm.localsearch"]
        return {
            "deviation.heuristic_s": s["deviation.heuristic"] / n,
            "deviation.exact_s": s["deviation.exact"] / n,
            "deviation.calls": dev_calls / n,
            "deviation.grid_q_sum": c["deviation.grid_q"] / n,
            "deviation.repeat_input_frac": frac(c["deviation.repeat"], dev_calls),
            "deviation.exact_frac": frac(k["deviation.exact"], dev_calls),
            "deviation.value_sum": c["deviation.value"] / n,
            "deviation.witness_mismatch": c["deviation.witness_mismatch"],
            "recovery.cutoff_noop_frac": frac(c["cutoff.noop"], k["core.cutoff"]),
            "recovery.self_s": sum(v for name, v in s.items() if name.startswith("recovery.")) / n,
            "cutnorm.exact_s": s["cutnorm.exact"] / n,
            "cutnorm.localsearch_s": s["cutnorm.localsearch"] / n,
            "cutnorm.subsets": c["cutnorm.subsets"] / n,
            "cutnorm.calls": cut_calls / n,
            "cutnorm.exact_frac": frac(k["cutnorm.exact"], cut_calls),
            "cutnorm.witness_mismatch": c["cutnorm.witness_mismatch"],
            "approx.window_sup_s": s["approx.robinson_approx"] / n,
            "approx.grid_points": c["approx.grid_points"] / n,
            "approx.envelope_s": s["approx.monotone_envelope"] / n,
            "approx.validate_s": c["approx.validate_s"] / n,
            "approx.ul_sup_s": s["approx.ul_sup"] / n,
            "approx.ul_sup_calls": k["approx.ul_sup"] / n,
            "approx.exact_frac": frac(c["approx.exact"], k["approx.robinson_approx"]),
            "regions.busy_s": s["regions.compute_regions"] / n,
            "regions.calls": k["regions.compute_regions"] / n,
            "regions.pixels": c["regions.pixels"] / n,
            "core.is_robinson_s": s["core.is_robinson"] / n,
            "core.is_robinson_calls": k["core.is_robinson"] / n,
            "core.refine_s": s["core.refine"] / n,
            "trace.uncovered_s": s["op"] / n,
        }

    def span_table(self):
        """(span name, calls per op, self seconds per op), slowest first."""
        n = max(self.ops, 1)
        rows = [(name, self.calls[name] / n, sec / n) for name, sec in self.self_s.items()]
        return sorted(rows, key=lambda r: -r[2])
