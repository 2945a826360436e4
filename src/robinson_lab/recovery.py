"""End-to-end recovery of a Robinson approximation with a theoretical error bound.

Both routes run one pipeline: normalize, estimate the ordered-shape
deviation, pick the window width, approximate, measure the cut-norm error.
They differ only in normalization and width.  ``recover`` normalizes a
nonnegative kernel in an L^p norm (finite p > 5), clips large values at a
threshold derived from the estimate, and picks the width depending on whether
the clipped kernel still shows positive deviation ("case1") or not ("case2");
the approximation itself is always built from the normalized input.
``recover_bounded`` (p = inf) neither normalizes nor clips: the width comes
straight from the estimate and the sup norm.

Reported deviation values and the theoretical bound are in normalized units;
the measured cut-norm error is in the units of the original input.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional

import numpy as np

from .core import (MAX_REFINED_CELLS, StepGraphon, _seed, _whole_number, cutoff, is_robinson,
                   lp_norm, refine)
from .cutnorm import DEFAULT_DISPATCH_CAP, cut_norm
from .deviation import EXACT_DEVIATION_CAP, DeviationCertificate, deviation_exact, deviation_heuristic
from .approx import RobinsonApprox, _grid_size, _robinson_tol, robinson_approx


def estimate_deviation(w: StepGraphon, refinement: int = 2, restarts: int = 50,
                       seed: int = 0, known=None) -> DeviationCertificate:
    """Deviation with an automatic exact/heuristic switch.

    Exact enumeration runs at the largest refinement r <= ``refinement`` that
    keeps the refined grid within EXACT_DEVIATION_CAP cells (possibly r = 1,
    coarser than requested but still exact); larger inputs fall back to
    the sweep heuristic at the requested refinement.

    ``known`` is an optional ``(kernel, certificate)`` pair returned for the
    same refinement, restarts and seed.  When ``w`` is bit-identical to that
    kernel the certificate is returned without a new search: both solvers
    are deterministic functions of these inputs.
    """
    want = _whole_number(refinement, 1, "refinement must be >= 1")
    restarts = _whole_number(restarts, 0, "restarts must be >= 0")
    seed = _seed(seed)
    if known is not None and known[0].values.tobytes() == w.values.tobytes():
        return known[1]
    r_exact = min(want, EXACT_DEVIATION_CAP // w.n)
    if r_exact >= 1:
        return deviation_exact(w, refinement=r_exact)
    return deviation_heuristic(w, refinement=want, restarts=restarts, seed=seed)


def theoretical_bound(p, lam: float, inf_norm: Optional[float] = None) -> float:
    """Theoretical cut-norm error bound as a function of the deviation; at an
    estimate that undershoots the true deviation it is no certificate.

    Finite p > 5: 78 * lam^((p-5)/(5p-5)).  p = inf: 44 * lam^(1/5) when the
    values stay within [0, 1] (inf_norm omitted or <= 1), otherwise the
    sup-norm-scaled variant 44 * inf_norm^(4/5) * lam^(1/5).
    """
    p = float(p)
    if not lam >= 0:
        raise ValueError("deviation must be >= 0")
    if inf_norm is not None and not inf_norm >= 0:
        raise ValueError("inf_norm must be >= 0")
    if not p > 5:
        raise ValueError("norm index must exceed 5")
    if lam == 0:
        return 0.0
    if p == math.inf:
        if inf_norm is None or inf_norm <= 1.0 + 1e-12:
            return 44.0 * lam ** 0.2
        return 44.0 * inf_norm ** 0.8 * lam ** 0.2
    return 78.0 * lam ** ((p - 5.0) / (5.0 * p - 5.0))


def proposition_constants(w: StepGraphon, p, refinement: int = 2,
                          restarts: int = 50, seed: int = 0):
    """Window width and block count used by the finite-p region analysis.

    alpha = ||w||_inf^(-p/(3p-2)) * lam^(2p/(5p-2)),
    m     = ceil(lam^(-(p-2)/(5p-2))),

    with the limiting exponents (-1/3, 2/5, -1/5) at p = inf.  Requires
    p > 1 (checked before the deviation search), a nonnegative kernel with
    lpNorm(w, p) <= 1 and a positive deviation estimate.  Returns
    ``(alpha, m)``; ``m`` feeds compute_regions.  The sign check allows
    -1e-12 of the sup norm, so it does not depend on units.
    """
    if w.values.min() < -1e-12 * float(np.abs(w.values).max()):
        raise ValueError("kernel must be nonnegative")
    if lp_norm(w, p) > 1.0 + 1e-9:
        raise ValueError("lpNorm(w, p) must be <= 1")
    if math.isinf(p):
        ea, el, em = -1.0 / 3.0, 0.4, -0.2
    else:
        p = float(p)
        if p <= 1:
            raise ValueError("norm index must exceed 1")
        ea = -p / (3.0 * p - 2.0)
        el = 2.0 * p / (5.0 * p - 2.0)
        em = -(p - 2.0) / (5.0 * p - 2.0)
    lam = estimate_deviation(w, refinement, restarts, seed).value
    if lam <= 0:
        raise ValueError("deviation estimate is zero; constants undefined")
    sup = lp_norm(w, np.inf)
    alpha = sup ** ea * lam ** el
    m = max(1, math.ceil(lam ** em - 1e-9))
    return float(alpha), m


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    """Everything the pipeline decided and measured.

    ``deviation_input`` / ``deviation_cutoff`` and ``theory_bound`` refer to
    the normalized kernel; ``measured_error`` is in original units.
    """

    case_taken: str                      # alpha-zero | case1 | case2 |
                                         # bounded-corollary | fallback-min-alpha
    p: float
    alpha: float
    normalization_scale: float
    cutoff_threshold: Optional[float]
    deviation_input: float
    deviation_cutoff: Optional[float]
    deviation_mode: str
    theory_bound: float
    measured_error: float
    measured_error_exact: bool
    approx_mode: str
    approx_grid: int
    robinson_validated: bool
    timings: dict
    warning: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "caseTaken": self.case_taken,
            "p": "inf" if math.isinf(self.p) else self.p,
            "alpha": self.alpha,
            "normalizationScale": self.normalization_scale,
            "M": self.cutoff_threshold,
            "lambdaW": self.deviation_input,
            "lambdaWM": self.deviation_cutoff,
            "lambdaMode": self.deviation_mode,
            "theoreticalBound": self.theory_bound,
            "measuredError": self.measured_error,
            "measuredErrorExact": self.measured_error_exact,
            "approxMode": self.approx_mode,
            "approxGrid": self.approx_grid,
            "robinsonValidated": self.robinson_validated,
            "timings": self.timings,
            "warning": self.warning,
        }


def measured_cut_error(w: StepGraphon, approx: RobinsonApprox,
                       cap: int = DEFAULT_DISPATCH_CAP, seed: int = 0):
    """Cut norm of (w - approx) on the common refinement.  Returns (value, exact)."""
    n, g = w.n, approx.grid_n
    common = math.lcm(n, g)
    diff = refine(w, common // n) - refine(StepGraphon(approx.values), common // g)
    res = cut_norm(diff, cap=cap, seed=seed)
    return res.value, res.exact


def _pipeline(w: StepGraphon, p: float, g: int, refinement: int, restarts: int,
              seed: int, cutnorm_cap: int):
    """The recovery recipe both routes share: check the common grid,
    normalize (finite p only), estimate, identity or fallback, width,
    approximate, measure.  Only the width is route-specific.  ``g`` is the
    validated grid size."""
    common = math.lcm(w.n, g)
    if common > MAX_REFINED_CELLS:
        raise ValueError("grid_n=%d and n=%d measure the error on a common grid of %d cells,"
                         " above the cap %d" % (g, w.n, common, MAX_REFINED_CELLS))
    finite = not math.isinf(p)
    timings = {}
    scale, wn = 1.0, w
    if finite:
        t0 = time.perf_counter()
        scale = lp_norm(w, p) or 1.0
        wn = w if scale == 1.0 else (1.0 / scale) * w
        timings["normalize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cert = estimate_deviation(wn, refinement, restarts, seed)
    lam = cert.value
    timings["deviation"] = time.perf_counter() - t0

    warning = threshold = lam_m = None
    if lam == 0.0 and is_robinson(w, _robinson_tol(w)).robinson:
        case, alpha = "alpha-zero", 0.0
        if g != w.n:
            warning = ("grid_n=%d ignored: a zero deviation returns the %dx%d input itself"
                       % (g, w.n, w.n))
    elif lam == 0.0:
        # estimator blind spot: the heuristic can miss a violation, and exact
        # enumeration at r = 1 cannot see one inside a single cell (a dipped
        # diagonal cell, say).  A width of 0 would emit the non-Robinson
        # input itself, so use the smallest positive width.
        case, alpha = "fallback-min-alpha", 1.0 / w.n
        warning = ("deviation estimate is zero but the matrix is not "
                   "Robinson; falling back to the smallest positive width")
    elif finite:
        t0 = time.perf_counter()
        threshold = 2.0 * lam ** (-1.0 / (p - 1.0))
        clip = cutoff(wn, threshold)
        # a cutoff that clipped nothing hands back the same kernel: no new search
        cert_m = estimate_deviation(clip.graphon, refinement, restarts, seed, known=(wn, cert))
        lam_m = cert_m.value
        timings["cutoff"] = time.perf_counter() - t0
        if lam_m > 0.0:
            case = "case1"
            alpha = lp_norm(clip.graphon, np.inf) ** (-0.4) * lam_m ** 0.4
        else:
            case = "case2"
            alpha = threshold ** (-0.4) * lam ** 0.4
    else:
        case = "bounded-corollary"
        unit = w.values.min() >= -1e-12 and w.values.max() <= 1.0 + 1e-12
        alpha = lp_norm(w, np.inf) ** (-1.0 / 3.0 if unit else -0.4) * lam ** 0.4
    if alpha >= 1.0:
        alpha = 1.0 - 1e-9
        warning = "window width clamped below 1"

    if case == "alpha-zero":
        approx = robinson_approx(w, 0.0)
        err, err_exact = 0.0, True
    else:
        t0 = time.perf_counter()
        approx = robinson_approx(wn, alpha, grid_n=g)
        if scale != 1.0:
            vals = scale * approx.values
            vals.flags.writeable = False
            approx = dataclasses.replace(approx, values=vals)
        timings["approx"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        err, err_exact = measured_cut_error(w, approx, cutnorm_cap, seed=seed)
        timings["measureError"] = time.perf_counter() - t0

    report = RecoveryReport(
        case_taken=case, p=p, alpha=float(alpha), normalization_scale=scale,
        cutoff_threshold=threshold, deviation_input=lam,
        deviation_cutoff=lam_m, deviation_mode=cert.mode,
        theory_bound=theoretical_bound(p, lam, inf_norm=lp_norm(w, np.inf)),
        measured_error=err, measured_error_exact=err_exact,
        approx_mode=approx.mode, approx_grid=approx.grid_n,
        robinson_validated=approx.robinson_validated,
        timings=timings, warning=warning)
    return approx, report


def recover(w: StepGraphon, p: float = 6.0, refinement: int = 2,
            restarts: int = 50, seed: int = 0, grid_n: Optional[int] = None,
            cutnorm_cap: int = DEFAULT_DISPATCH_CAP):
    """Normalize in L^p, estimate the deviation, clip, approximate.

    Returns ``(RobinsonApprox, RecoveryReport)`` with the approximation in
    original units.  Requires a nonnegative kernel and a finite p > 5; use
    :func:`recover_bounded` for the p = inf route.

    A zero deviation estimate takes the identity path only when the matrix
    itself passes the Robinson check.  That path returns the n x n input, so
    a ``grid_n`` other than n is ignored and the report warning says so.
    Otherwise the pipeline falls back to the smallest positive width 1/n and
    flags the report, so every emitted approximation is Robinson.  Either
    estimator can return zero on a non-Robinson matrix: the heuristic may
    miss a violation, and the exact one enumerates only the r-refined
    lattice, which at r = 1 cannot see a violation inside one cell.

    A ``grid_n`` whose common grid with n exceeds MAX_REFINED_CELLS raises
    before any search, on every path.
    """
    p = float(p)
    if p == math.inf:
        raise ValueError("p = inf is the bounded route; call recover_bounded")
    if not p > 5:
        raise ValueError("norm index p must exceed 5")
    if w.values.min() < 0:
        raise ValueError("kernel must be nonnegative")
    return _pipeline(w, p, _grid_size(w, grid_n), refinement, restarts, seed, cutnorm_cap)


def recover_bounded(w: StepGraphon, refinement: int = 2, restarts: int = 50,
                    seed: int = 0, grid_n: Optional[int] = None,
                    cutnorm_cap: int = DEFAULT_DISPATCH_CAP):
    """Bounded-kernel recovery: width straight from the deviation estimate.

    Values within [0, 1]: alpha = ||w||_inf^(-1/3) lam^(2/5), bound
    44 lam^(1/5).  General bounded kernels: alpha = ||w||_inf^(-2/5)
    lam^(2/5), bound 44 ||w||_inf^(4/5) lam^(1/5) (both formulas are what the
    sup-norm rescaling route evaluates to on the original values, so no
    explicit rescaling is performed).

    A zero deviation estimate on a non-Robinson matrix falls back to the
    smallest positive width 1/n with a report warning; on a Robinson matrix
    it returns the n x n input, and the warning says when that ignores
    ``grid_n``.  Returns ``(RobinsonApprox, RecoveryReport)``.
    """
    return _pipeline(w, math.inf, _grid_size(w, grid_n), refinement, restarts, seed, cutnorm_cap)
