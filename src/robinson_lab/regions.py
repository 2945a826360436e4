"""Level-set geography of a nonnegative step graphon on the triangle.

For each threshold k/m (k = 0..m*levelMax) the triangle x <= y splits into a
high zone (some upper-left alpha-window averages above the threshold, plus
the diagonal), a low zone (some feasible lower-right window average at or
below it) and, between two consecutive thresholds, a remainder band; pixels
where the two zones stay further apart are "grey".  All zones are evaluated
on a square raster from an interval-anchored window family: windows anchored
on raster coordinates plus the per-pixel corner windows, each averaged from
its overlap with every cell of w (one product per family), then closed
monotonically, which keeps every boundary curve a monotone staircase.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .approx import GUARD, _box_averages
from .core import StepGraphon, _whole_number


@dataclasses.dataclass(frozen=True)
class RegionMap:
    m: int
    level_max: int            # value ceiling; thresholds go up to level_max
    alpha: float
    raster: int
    k_high: np.ndarray        # per pixel: largest k with pixel in the high zone
    k_low: np.ndarray         # per pixel: smallest k with pixel in the low zone
    value_high: np.ndarray    # monotone-closed upper-left window maxima
    value_low: np.ndarray     # monotone-closed lower-right window minima

    @property
    def total_levels(self) -> int:
        return self.m * self.level_max

    def _triangle(self):
        return np.triu(np.ones((self.raster, self.raster), dtype=bool))

    def _level(self, k, least, most):
        """``k`` as an int; ValueError unless it is a whole level in [least, most]."""
        k = _whole_number(k, least, "k out of range")
        if k > most:
            raise ValueError("k out of range")
        return k

    def high_mask(self, k: int) -> np.ndarray:
        """Pixels of the high zone at threshold k/m (diagonal always in)."""
        return self._triangle() & (self.k_high >= self._level(k, 0, self.total_levels))

    def low_mask(self, k: int) -> np.ndarray:
        """Pixels of the low zone at threshold k/m."""
        return self._triangle() & (self.k_low <= self._level(k, 0, self.total_levels))

    def band_mask(self, k: int) -> np.ndarray:
        """The remainder band at level k: high zone k intersect low zone k+1."""
        k = self._level(k, 0, self.total_levels - 1)
        return self.high_mask(k) & self.low_mask(k + 1)

    def grey_mask(self, k: int) -> np.ndarray:
        """Pixels in neither zone at threshold k/m (1 <= k <= total-1)."""
        k = self._level(k, 1, self.total_levels - 1)
        return self._triangle() & ~self.high_mask(k) & ~self.low_mask(k)

    def label_array(self) -> np.ndarray:
        """-1 outside the triangle; band level k >= 0 for uniquely-labelled
        pixels; -(2 + first grey level) for grey pixels.  Band k needs
        k_low - 1 <= k <= min(k_high, total - 1), and k_low > k_high below
        the top level, so at most one k qualifies."""
        top = np.minimum(self.k_high, self.total_levels - 1)
        lab = np.where(top >= self.k_low - 1, top, -(3 + self.k_high))
        return np.where(self._triangle(), lab, -1)


def _anchored_window_matrix(w: StepGraphon, alpha, raster):
    """W[ia, ib] = average over [a-alpha, a] x [b, b+alpha] for anchors on the
    raster boundary grid; -inf rows/cols where the window leaves [0, 1]."""
    t = np.arange(raster + 1) / raster
    inside = (t >= alpha - GUARD)[:, None] & (t <= 1.0 - alpha + GUARD)[None, :]
    return np.where(inside, _box_averages(w, alpha, t, t), -np.inf)


def compute_regions(w: StepGraphon, m: int, alpha: float, raster: int = 128) -> RegionMap:
    """Rasterise the level-set regions of w.

    :param m: thresholds per unit value; levels run to m * ceil(max w)
    :param alpha: window measure
    :param raster: pixels per axis
    """
    if np.min(w.values) < 0:
        raise ValueError("regions need a nonnegative graphon")
    if not (GUARD < alpha < 0.5):
        raise ValueError("alpha must lie in (GUARD, 0.5), GUARD = %g" % GUARD)
    m = _whole_number(m, 1, "m must be a positive integer")
    raster = _whole_number(raster, 8, "raster must be an integer >= 8")
    level_max = max(1, math.ceil(float(w.values.max()) - 1e-12))
    total = m * level_max

    r = raster
    centers = (np.arange(r) + 0.5) / r

    # ---- upper-left maxima -------------------------------------------------
    # pixel (ix, iy) may use anchors a <= center x -> index ix, b >= center y
    # -> index iy + 1; the closure below takes the max over all of them
    wmat = _anchored_window_matrix(w, alpha, r)
    # per-pixel corner window [x-alpha, x] x [y, y+alpha]
    corner = _box_averages(w, alpha, centers, centers)
    feas = (centers >= alpha - GUARD)[:, None] & (centers <= 1 - alpha + GUARD)[None, :]
    v_high = np.maximum(wmat[:r, 1:], np.where(feas, corner, -np.inf))
    # monotone closure: windows usable at smaller x / larger y stay usable
    v_high = np.maximum.accumulate(v_high, axis=0)
    v_high = np.maximum.accumulate(v_high[:, ::-1], axis=1)[:, ::-1]

    # ---- lower-right minima ------------------------------------------------
    # pixel constraint: a >= x + alpha, b <= y - alpha, and a <= b; both
    # indices step by exactly one per pixel, so the closure below takes the
    # min over every anchor a' >= a, b' <= b
    wmask = np.where(np.triu(np.isfinite(wmat)), wmat, np.inf)   # a <= b
    ia_min = int(np.ceil((centers[0] + alpha) * r - 1e-9)) + np.arange(r)
    ib_max = int(np.floor((centers[0] - alpha) * r + 1e-9)) + np.arange(r)
    ok = ia_min <= r            # ia_min >= 1 and ib_max < r for alpha > 0
    okb = ib_max >= 0
    v_low = np.where(ok[:, None] & okb[None, :],
                     wmask[np.ix_(np.clip(ia_min, 0, r), np.clip(ib_max, 0, r))], np.inf)
    # per-pixel corner windows [x, x+alpha] x [y-alpha, y]: w is symmetric,
    # so each is the upper-left corner window of pixel (iy, ix)
    feas2 = (centers[None, :] - centers[:, None]) >= 2 * alpha - GUARD
    v_low = np.minimum(v_low, np.where(feas2, corner.T, np.inf))
    # monotone closure: windows usable at larger x / smaller y stay usable
    v_low = np.minimum.accumulate(v_low[::-1, :], axis=0)[::-1, :]
    v_low = np.minimum.accumulate(v_low, axis=1)

    # ---- per-pixel level indices -------------------------------------------
    with np.errstate(invalid="ignore"):
        k_high = np.where(np.isfinite(v_high),
                          np.ceil(m * np.maximum(v_high, 0.0)) - 1, -1.0)
    k_high = np.clip(k_high, 0, total).astype(np.int64)
    diag = np.arange(r)
    k_high[diag, diag] = total
    k_low = np.where(np.isfinite(v_low), np.ceil(m * np.maximum(v_low, 0.0)), total)
    k_low = np.clip(np.maximum(k_low, k_high + 1), 1, total).astype(np.int64)

    return RegionMap(m=m, level_max=level_max, alpha=float(alpha), raster=r,
                     k_high=k_high, k_low=k_low,
                     value_high=v_high, value_low=v_low)


def verify_partition(rm: RegionMap) -> bool:
    """Structural audit from the stored masks: every triangle pixel must carry
    exactly one band label or be grey at some level (never both), and the
    level clipping must give the conventions at k = 0 (high zone the whole
    triangle, low zone empty) and k = total (low zone the whole triangle,
    diagonal high).  The zones need no audit of their own: every high mask
    is ``_triangle() & (k_high >= k)`` and every low mask
    ``_triangle() & (k_low <= k)``, so each lies in the triangle, and high
    zones shrink and low zones grow as k grows, by construction."""
    tri = rm._triangle()
    total = rm.total_levels
    band_count = np.zeros((rm.raster, rm.raster), dtype=np.int64)
    grey_any = np.zeros_like(tri)
    for k in range(total):
        band_count += rm.band_mask(k)
        if k:
            grey_any |= rm.grey_mask(k)
    if not np.array_equal(rm.high_mask(0), tri) or np.any(rm.low_mask(0)):
        return False
    if not np.array_equal(rm.low_mask(total), tri):
        return False
    diag = np.arange(rm.raster)
    if not np.all(rm.high_mask(total)[diag, diag]):
        return False
    one_band = band_count == 1
    ok = (one_band & ~grey_any) | ((band_count == 0) & grey_any)
    return bool(np.all(ok[tri])) and not np.any(band_count[~tri])


def largest_grey_square(rm: RegionMap, k: int) -> float:
    """Side (in measure) of the largest axis-aligned square of whole pixels
    inside the grey set at level k."""
    mask = rm.grey_mask(k).astype(np.int64)
    r = rm.raster
    pref = np.zeros((r + 1, r + 1), dtype=np.int64)
    pref[1:, 1:] = mask.cumsum(axis=0).cumsum(axis=1)

    def full_square_exists(s):
        win = (pref[s:, s:] - pref[:-s, s:] - pref[s:, :-s] + pref[:-s, :-s])
        return bool(np.any(win == s * s))

    lo, hi = 0, r          # invariant: side lo always exists, hi + 1 never
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if full_square_exists(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo / r


@dataclasses.dataclass(frozen=True)
class BoundaryCurve:
    """Staircase sample of a zone boundary: z values over pixel-column centers."""
    kind: str          # "high" (upper envelope) or "low" (lower envelope)
    level: int
    xs: np.ndarray     # strictly increasing column centers
    zs: np.ndarray     # nondecreasing boundary heights

    def _bounds_at(self, x: float):
        """The [lo, hi] range the staircase occupies above coordinate x
        (accounting for the vertical jump when x sits on a column edge)."""
        r = len(self.xs)
        edges = (np.arange(r + 1)) / r
        col = int(np.clip(np.floor(x * r), 0, r - 1))
        lo = hi = float(self.zs[col])
        for edge_col in (col, col + 1):
            if 0 < edge_col < r and abs(x - edges[edge_col]) <= 1e-12:
                lo = min(lo, float(self.zs[edge_col - 1]), float(self.zs[edge_col]))
                hi = max(hi, float(self.zs[edge_col - 1]), float(self.zs[edge_col]))
        return lo, hi


def boundary_curve(rm: RegionMap, kind: str, k: int) -> BoundaryCurve:
    """Extract the upper boundary of the high zone ("high": largest z with
    (x, z) inside, top pixel edge) or the lower boundary of the low zone
    ("low": smallest z, bottom pixel edge; 1 where the column misses it)."""
    r = rm.raster
    xs = (np.arange(r) + 0.5) / r
    if kind == "high":
        mask = rm.high_mask(k)
        zs = np.where(mask.any(axis=1), (r - np.argmax(mask[:, ::-1], axis=1)) / r,
                      np.arange(r) / r)
    elif kind == "low":
        mask = rm.low_mask(k)
        zs = np.where(mask.any(axis=1), np.argmax(mask, axis=1) / r, 1.0)
    else:
        raise ValueError("kind must be high or low")
    return BoundaryCurve(kind=kind, level=k, xs=xs, zs=np.maximum.accumulate(zs))


def cell_crosses(curve: BoundaryCurve, cell) -> bool:
    """Does the staircase pass through the open cell (x0, x1) x (y0, y1)?
    True when the top-left corner lies strictly above the curve and the
    bottom-right corner strictly below it."""
    x0, x1, y0, y1 = (float(c) for c in cell)
    if not (x0 < x1 and y0 < y1):
        return False
    _, hi_left = curve._bounds_at(x0)
    lo_right, _ = curve._bounds_at(x1)
    return y1 > hi_left and y0 < lo_right
