"""Command-line surface.

Subcommands: lambda, cutnorm, approx, recover, regions, synth, render,
selftest.  Reports are JSON (schema "robinson-lab/1", sorted keys); matrices
use the plain-text format of :mod:`robinson_lab.core`.  Exit codes: 0 success,
1 validation or I/O error (bad flags, bad config, bad input data, unwritable
output, failed selftest), 2 internal error.

Numeric output is deterministic given the config; the only nondeterministic
report entries are the wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

import numpy as np

from . import cutnorm, deviation, synth, recovery, render
from .approx import _robinson_tol, closed_form_robinson_ae, robinson_approx
from .combinatorics import IntervalSet, pigeonhole_shrink, split_with_small_remainder, interval_set_integral
from .core import CellSet, StepGraphon, _rng, _whole_number, is_robinson, load_graphon, save_graphon
from .regions import compute_regions, largest_grey_square, verify_partition

SCHEMA = "robinson-lab/1"

CONFIG_DEFAULTS = {"p": 6.0, "refinement": 2, "restarts": 50, "seed": 0,
                   "cutnormCap": cutnorm.DEFAULT_DISPATCH_CAP, "gridN": None}
CONFIG_KEYS = tuple(CONFIG_DEFAULTS)


class _Error(Exception):
    """Validation failure (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Error(message)


def _load_config(blob):
    """Parse the --config JSON (inline or @file); unknown keys are rejected."""
    cfg = dict(CONFIG_DEFAULTS)
    if not blob:
        return cfg
    try:
        if blob.startswith("@"):
            with open(blob[1:], encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.loads(blob)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Error(f"bad config: {exc}") from exc
    if not isinstance(data, dict):
        raise _Error("config must be a JSON object")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise _Error("unknown config keys: %s (allowed: %s)"
                     % (", ".join(unknown), ", ".join(CONFIG_KEYS)))
    cfg.update(data)
    # one range rule for every command, with the library's messages
    for key, least, message in (("refinement", 1, "refinement must be >= 1"),
                                ("restarts", 0, "restarts must be >= 0"),
                                ("seed", 0, "seed must be a non-negative integer"),
                                ("cutnormCap", 0, "cap must be a whole number >= 0")):
        cfg[key] = _whole_number(cfg[key], -math.inf, "config %s must be an integer" % key)
        if cfg[key] < least:
            raise _Error(message)
    if cfg["p"] == "inf":
        cfg["p"] = math.inf
    elif type(cfg["p"]) not in (int, float):
        raise _Error('config p must be a number or "inf"')
    return cfg


def _emit(report, out_path):
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _need_input(args):
    if not args.infile:
        raise _Error("--in is required for this command")
    try:
        return load_graphon(args.infile)
    except (OSError, ValueError) as exc:
        raise _Error(f"cannot read {args.infile}: {exc}") from exc


def _cells(cs: CellSet):
    return list(cs.indices)


def _cmd_lambda(args, cfg):
    w = _need_input(args)
    r = cfg["refinement"] if args.refinement is None else args.refinement
    restarts, seed = cfg["restarts"], cfg["seed"]
    if args.mode == "exact":
        cert = deviation.deviation_exact(w, refinement=r)
    elif args.mode == "heuristic":
        cert = deviation.deviation_heuristic(w, refinement=r, restarts=restarts, seed=seed)
    else:
        cert = recovery.estimate_deviation(w, refinement=r, restarts=restarts, seed=seed)
    report = {
        "schema": SCHEMA, "command": "lambda",
        "value": cert.value, "termLeft": cert.term_left,
        "termRight": cert.term_right, "mode": cert.mode,
        "refinement": cert.refinement,
        "witnessLeft": None if cert.witness_left is None else [_cells(c) for c in cert.witness_left],
        "witnessRight": None if cert.witness_right is None else [_cells(c) for c in cert.witness_right],
    }
    _emit(report, args.out)
    return 0


def _cmd_cutnorm(args, cfg):
    w = _need_input(args)
    if args.mode == "exact":
        res = cutnorm.cut_norm_exact(w)
    elif args.mode == "localsearch":
        res = cutnorm.cut_norm_local_search(w, restarts=cfg["restarts"], seed=cfg["seed"])
    else:
        res = cutnorm.cut_norm(w, cap=cfg["cutnormCap"], restarts=cfg["restarts"],
                               seed=cfg["seed"])
    report = {
        "schema": SCHEMA, "command": "cutnorm",
        "value": res.value, "exact": res.exact, "mode": res.mode,
        "witnessS": _cells(res.witness_s), "witnessT": _cells(res.witness_t),
    }
    _emit(report, args.out)
    return 0


def _grid_n(args, cfg):
    """--grid, else the config gridN; None (or "null") means the input's own
    size.  Other values reach the library as given, which rejects a value
    that is not a positive integer."""
    grid_n = cfg["gridN"] if args.grid is None else args.grid
    return None if grid_n in (None, "null") else grid_n


def _cmd_approx(args, cfg):
    w = _need_input(args)
    grid_n = _grid_n(args, cfg)
    if args.mode == "closed-form":
        ra = closed_form_robinson_ae(w, args.alpha, grid_n=grid_n)
    else:
        ra = robinson_approx(w, args.alpha, grid_n=grid_n, mode=args.mode)
    if args.out_matrix:
        save_graphon(ra.as_graphon(), args.out_matrix)
    report = {
        "schema": SCHEMA, "command": "approx",
        "alpha": ra.alpha, "gridN": ra.grid_n, "mode": ra.mode,
        "robinsonValidated": ra.robinson_validated,
        "outMatrix": args.out_matrix,
    }
    _emit(report, args.out)
    return 0


def _csv_row(rep: dict) -> str:
    cols = ["caseTaken", "p", "alpha", "normalizationScale", "M", "lambdaW",
            "lambdaWM", "theoreticalBound", "measuredError", "measuredErrorExact"]
    header = ",".join(cols)
    vals = []
    for c in cols:
        x = rep.get(c)
        if isinstance(x, float):
            vals.append("%.17g" % x)
        elif x is None:
            vals.append("")
        else:
            vals.append(str(x))
    return header + "\n" + ",".join(vals) + "\n"


def _cmd_recover(args, cfg):
    w = _need_input(args)
    p = cfg["p"] if args.p is None else args.p
    grid_n = _grid_n(args, cfg)
    kw = dict(refinement=cfg["refinement"], restarts=cfg["restarts"], seed=cfg["seed"],
              grid_n=grid_n, cutnorm_cap=cfg["cutnormCap"])
    if p == math.inf:
        approx, rep = recovery.recover_bounded(w, **kw)
    else:
        approx, rep = recovery.recover(w, p=p, **kw)
    if args.out_matrix:
        save_graphon(approx.as_graphon(), args.out_matrix)
    report = {"schema": SCHEMA, "command": "recover"}
    report.update(rep.to_dict())
    _emit(report, args.out)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_csv_row(report))
    return 0


def _cmd_regions(args, cfg):
    w = _need_input(args)
    rm = compute_regions(w, args.m, args.alpha, raster=args.raster)
    if args.out_svg or args.out_csv:
        render.render_regions(rm, svg_path=args.out_svg, csv_path=args.out_csv)
    grey = {}
    for k in range(1, rm.total_levels):
        side = largest_grey_square(rm, k)
        if side:
            grey[str(k)] = side
    report = {
        "schema": SCHEMA, "command": "regions",
        "m": rm.m, "alpha": rm.alpha, "raster": rm.raster,
        "levels": rm.level_max, "partitionValid": verify_partition(rm),
        "largestGreySquare": grey,
        "outSvg": args.out_svg, "outCsv": args.out_csv,
    }
    _emit(report, args.out)
    return 0


_GENERATORS = {
    "toeplitz": lambda n, seed: synth.toeplitz_decay(n, seed),
    "cumulative": lambda n, seed: synth.cumulative_envelope(n, seed),
    "smooth": lambda n, seed: synth.smooth_exp(n),
    "quadratic": lambda n, seed: synth.quadratic_sum(n),
}


def _cmd_synth(args, cfg):
    if args.kind not in _GENERATORS:
        raise _Error("unknown generator %r (have: %s)"
                     % (args.kind, ", ".join(sorted(_GENERATORS))))
    seed = cfg["seed"] if args.seed is None else args.seed
    w = _GENERATORS[args.kind](args.n, seed)
    report = {"schema": SCHEMA, "command": "synth", "kind": args.kind,
              "n": args.n, "seed": seed, "noise": None}
    if args.noise:
        w, nrep = synth.add_noise(w, args.noise, args.magnitude, seed=seed,
                                  cutnorm_cap=cfg["cutnormCap"],
                                  cutnorm_restarts=cfg["restarts"])
        report["noise"] = {
            "kind": nrep.kind, "magnitude": nrep.magnitude, "seed": nrep.seed,
            "cutNorm": nrep.cut_norm, "cutNormExact": nrep.cut_norm_exact,
            "l1": nrep.l1, "l2": nrep.l2, "linf": nrep.linf,
        }
    save_graphon(w, args.out_matrix)
    report["outMatrix"] = args.out_matrix
    _emit(report, args.out)
    return 0


def _cmd_render(args, cfg):
    w = _need_input(args)
    if not args.out:
        raise _Error("--out is required for render")
    render.render_heatmap(w, args.out)
    return 0


def _selftest_cases():
    """(name, callable) pairs; each callable returns True on pass."""

    def cutnorm_oracle():
        rng = _rng(7)
        w = StepGraphon(0.5 * (lambda m: m + m.T)(rng.uniform(-1, 1, (5, 5))))
        exact = cutnorm.cut_norm_exact(w)
        best = 0.0
        for smask in range(1 << 5):
            s = [i for i in range(5) if smask >> i & 1]
            for tmask in range(1 << 5):
                t = [i for i in range(5) if tmask >> i & 1]
                if s and t:
                    best = max(best, abs(w.values[np.ix_(s, t)].sum()) / 25.0)
        return abs(exact.value - best) <= 1e-12

    def recognition():
        w = synth.toeplitz_decay(6, seed=1)
        if deviation.deviation_exact(w).value != 0.0:
            return False
        planted, _ = synth.plant_violation(w, 0.3, seed=2)
        return deviation.deviation_exact(planted).value >= 0.3 / 36 - 1e-12

    def continuity():
        a = synth.toeplitz_decay(5, seed=3)
        b, _ = synth.add_noise(a, "uniform_bounded", 0.1, seed=4)
        lam_a = deviation.deviation_exact(a).value
        lam_b = deviation.deviation_exact(b).value
        gap = cutnorm.cut_norm_exact(b - a).value
        return abs(lam_a - lam_b) <= 2.0 * gap + 1e-9

    def approx_is_robinson():
        w = synth.quadratic_sum(6)
        ra = robinson_approx(w, 0.2, mode="exact")
        out = ra.as_graphon()
        return ra.robinson_validated and is_robinson(out, _robinson_tol(out)).robinson

    def closed_form_matches_on_robinson():
        w = synth.smooth_exp(6)
        a = robinson_approx(w, 0.25, mode="exact")
        b = closed_form_robinson_ae(w, 0.25)
        return float(np.abs(a.values - b.values).max()) <= 1e-9

    def split_conditions():
        u = np.array([1.0, -0.5, 0.25, 0.75])
        p = IntervalSet(((0.0, 0.4), (0.5, 0.95)))
        res = split_with_small_remainder(u, p, 0.3)
        total = interval_set_integral(u, p)
        n_parts = len(res.parts)
        if abs(res.remainder_integral) > abs(total) / n_parts + 1e-9:
            return False
        return all(abs(q.measure - 0.3) <= 1e-12 for q in res.parts[:-1])

    def pigeonhole_density():
        rng = _rng(11)
        w = StepGraphon(0.5 * (lambda m: m + m.T)(rng.uniform(0, 1, (8, 8))))
        rows = CellSet(8, tuple(range(4)))
        cols = CellSet(8, tuple(range(4, 8)))
        t1, t2 = pigeonhole_shrink(w, rows, cols, 0.5)
        before = w.values[np.ix_(rows.indices, cols.indices)].mean()
        after = w.values[np.ix_(t1.indices, t2.indices)].mean()
        return after >= before - 1e-12

    def regions_partition():
        w = synth.cumulative_envelope(8, seed=5)
        rm = compute_regions(w, 3, 0.1, raster=64)
        return verify_partition(rm)

    def bound_formulas():
        ok = abs(recovery.theoretical_bound(10, 1.0) - 78.0) <= 1e-12
        ok = ok and abs(recovery.theoretical_bound(math.inf, 0.01) - 44.0 * 0.01 ** 0.2) <= 1e-12
        try:
            recovery.theoretical_bound(5, 0.5)
            return False
        except ValueError:
            return ok

    def recover_round_trip():
        w = synth.toeplitz_decay(6, seed=6)
        _, rep = recovery.recover(w, p=6)
        return rep.case_taken == "alpha-zero" and rep.measured_error == 0.0

    return [
        ("cutnorm exact vs brute force", cutnorm_oracle),
        ("deviation recognition", recognition),
        ("deviation cut-norm continuity", continuity),
        ("approximation is Robinson", approx_is_robinson),
        ("closed form on Robinson input", closed_form_matches_on_robinson),
        ("split conditions", split_conditions),
        ("pigeonhole density", pigeonhole_density),
        ("regions partition audit", regions_partition),
        ("bound formulas", bound_formulas),
        ("recover on Robinson input", recover_round_trip),
    ]


def _cmd_selftest(args, cfg):
    rows = []
    failures = 0
    for name, fn in _selftest_cases():
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        rows.append((name, ok))
        failures += 0 if ok else 1
    width = max(len(name) for name, _ in rows)
    for name, ok in rows:
        sys.stdout.write("%-*s  %s\n" % (width, name, "PASS" if ok else "FAIL"))
    sys.stdout.write("%d/%d passed\n" % (len(rows) - failures, len(rows)))
    return 0 if failures == 0 else 1


def _build_parser():
    ap = _Parser(prog="robinson-lab",
                 description="Step-graphon Robinson analysis toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, infile=True):
        if infile:
            sp.add_argument("--in", dest="infile", metavar="PATH",
                            help="input matrix file")
        sp.add_argument("--out", metavar="PATH",
                        help="JSON report path (default: stdout)")
        sp.add_argument("--config", metavar="JSON",
                        help="JSON parameter object or @file; keys (defaults): "
                             + ", ".join("%s (%s)" % (key, "input size" if v is None else "%g" % v)
                                         for key, v in CONFIG_DEFAULTS.items()))

    sp = sub.add_parser("lambda", help="ordered-shape deviation of a step graphon")
    common(sp)
    sp.add_argument("--mode", choices=("auto", "exact", "heuristic"), default="auto",
                    help="auto picks the solver the way recover does "
                         "(see estimate_deviation)")
    sp.add_argument("--refinement", type=int, default=None,
                    help="grid refinement (default: config refinement)")
    sp.set_defaults(fn=_cmd_lambda)

    sp = sub.add_parser("cutnorm", help="cut norm (exact or local-search lower bound)")
    common(sp)
    sp.add_argument("--mode", choices=("auto", "exact", "localsearch"), default="auto")
    sp.set_defaults(fn=_cmd_cutnorm)

    sp = sub.add_parser("approx", help="Robinson approximation at a given width")
    common(sp)
    sp.add_argument("--alpha", type=float, required=True, help="window width in (0,1)")
    sp.add_argument("--grid", type=int, default=None, help="output grid size")
    sp.add_argument("--mode", choices=("auto", "exact", "heuristic", "closed-form"),
                    default="auto")
    sp.add_argument("--out-matrix", metavar="PATH", help="write the approximation matrix")
    sp.set_defaults(fn=_cmd_approx)

    sp = sub.add_parser("recover", help="full recovery pipeline with theoretical error bound")
    common(sp)
    p_or_bounded = sp.add_mutually_exclusive_group()
    p_or_bounded.add_argument("--p", type=float, default=None,
                              help="norm index > 5, or inf (default: config p)")
    p_or_bounded.add_argument("--bounded", dest="p", action="store_const", const=math.inf,
                              help="use the bounded-kernel route (same as --p inf)")
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--out-matrix", metavar="PATH")
    sp.add_argument("--out-csv", metavar="PATH", help="also write the report as a CSV row")
    sp.set_defaults(fn=_cmd_recover)

    sp = sub.add_parser("regions", help="band/grey region partition diagnostics")
    common(sp)
    sp.add_argument("--m", type=int, required=True, help="levels per unit of value")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--raster", type=int, default=128)
    sp.add_argument("--out-svg", metavar="PATH")
    sp.add_argument("--out-csv", metavar="PATH")
    sp.set_defaults(fn=_cmd_regions)

    sp = sub.add_parser("synth", help="generate synthetic step graphons")
    common(sp, infile=False)
    sp.add_argument("--kind", required=True,
                    help="generator: " + ", ".join(sorted(_GENERATORS)))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--noise", choices=("uniform_bounded", "sparse_spikes", "sign_flip"),
                    default=None)
    sp.add_argument("--magnitude", type=float, default=0.1)
    sp.add_argument("--out-matrix", metavar="PATH", required=True)
    sp.set_defaults(fn=_cmd_synth)

    sp = sub.add_parser("render", help="grayscale SVG heatmap of a matrix")
    common(sp)
    sp.set_defaults(fn=_cmd_render)

    sp = sub.add_parser("selftest", help="run the built-in invariant checks")
    common(sp, infile=False)
    sp.set_defaults(fn=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        return args.fn(args, cfg)
    except _Error as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit:
        raise
    except Exception:
        sys.stderr.write("internal error:\n")
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
