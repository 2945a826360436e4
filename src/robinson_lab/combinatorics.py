"""Measure-theoretic helpers: splitting an interval set into equal parts with
a small-integral remainder, and shrinking a dense product set.

The split takes a union of intervals P and a step function u and cuts P into
N = ceil(|P|/beta) ordered pieces: N-1 consecutive pieces of measure beta and
one remainder of measure delta = |P| - beta(N-1) whose u-integral is at most
|int_P u| / N in absolute value.  Such a remainder window always exists: the
integrals of the measure-delta windows of the cyclic arrangement of P average
to delta/|P| times the total, and delta/|P| <= 1/N.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import CellSet, StepGraphon

_EPS = 1e-12


@dataclasses.dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint intervals inside [0, 1], kept sorted."""
    intervals: tuple

    def __post_init__(self):
        cleaned = []
        for lo, hi in sorted((float(a), float(b)) for a, b in self.intervals):
            if hi < lo - _EPS:
                raise ValueError("inverted interval (%g, %g)" % (lo, hi))
            if hi - lo <= _EPS:
                continue
            if not (lo >= -_EPS and hi <= 1 + _EPS):
                raise ValueError("interval (%g, %g) leaves [0, 1]" % (lo, hi))
            if cleaned and lo <= cleaned[-1][1] + _EPS:
                cleaned[-1] = (cleaned[-1][0], max(cleaned[-1][1], hi))
            else:
                cleaned.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(cleaned))

    @property
    def measure(self) -> float:
        return math.fsum(hi - lo for lo, hi in self.intervals)

    def bounds(self):
        if not self.intervals:
            raise ValueError("empty interval set")
        return self.intervals[0][0], self.intervals[-1][1]

    def max_point(self) -> float:
        return self.bounds()[1]

    def min_point(self) -> float:
        return self.bounds()[0]


def interval_set_integral(u, s: IntervalSet) -> float:
    """Integral of the step function u (q uniform cells on [0, 1]) over s."""
    u = np.asarray(u, dtype=np.float64)
    q = len(u)
    pref = np.concatenate([[0.0], np.cumsum(u) / q])

    def antiderivative(t):
        c = min(int(math.floor(t * q)), q - 1)
        return pref[c] + (t - c / q) * u[c]

    return math.fsum(antiderivative(hi) - antiderivative(lo) for lo, hi in s.intervals)


@dataclasses.dataclass(frozen=True)
class SplitResult:
    parts: tuple               # N IntervalSets; parts[:-1] ordered, measure beta
    remainder: IntervalSet     # == parts[-1], measure delta
    remainder_integral: float
    target_bound: float        # |integral over P| / N

    @property
    def remainder_index(self) -> int:
        return len(self.parts) - 1


class _Compressed:
    """Arc-length parametrisation of an interval set, refined at the cell
    edges of the step function so the density is constant per segment."""

    def __init__(self, u, p: IntervalSet):
        u = np.asarray(u, dtype=np.float64)
        q = len(u)
        real_lo, real_hi = [], []
        for lo, hi in p.intervals:
            edges = np.arange(math.floor(lo * q) + 1, q + 1) / q     # cell edges past lo
            cuts = np.concatenate([[lo], edges[(edges > lo + _EPS) & (edges < hi - _EPS)], [hi]])
            keep = cuts[1:] - cuts[:-1] > _EPS
            real_lo.append(cuts[:-1][keep])
            real_hi.append(cuts[1:][keep])
        self.real_lo = np.concatenate(real_lo)
        self.real_hi = np.concatenate(real_hi)
        mid = np.floor((self.real_lo + self.real_hi) / 2 * q).astype(np.intp)
        self.val = u[np.minimum(mid, q - 1)]
        lengths = self.real_hi - self.real_lo
        self.comp_edges = np.concatenate([[0.0], np.cumsum(lengths)])
        self.h_pref = np.concatenate([[0.0], np.cumsum(lengths * self.val)])
        self.length = float(self.comp_edges[-1])

    def h(self, s):
        """Integral of the density over compressed [0, s], for each s."""
        s = np.clip(s, 0.0, self.length)
        i = np.clip(np.searchsorted(self.comp_edges, s, side="right") - 1, 0, len(self.val) - 1)
        return self.h_pref[i] + (s - self.comp_edges[i]) * self.val[i]

    def to_real(self, c0, c1) -> IntervalSet:
        """Map a compressed range back to real intervals."""
        base = self.comp_edges[:-1]
        lo = np.maximum(c0, base)
        hi = np.minimum(c1, self.comp_edges[1:])
        keep = hi - lo > _EPS
        real, lo, hi, base = self.real_lo[keep], lo[keep], hi[keep], base[keep]
        return IntervalSet(tuple(zip((real + (lo - base)).tolist(),
                                     (real + (hi - lo) + (lo - base)).tolist())))


def _first_window(comp: _Compressed, delta, bound, wrap):
    """Latest compressed start s with |window integral| <= bound, up to a
    slack of 1e-12 int_P |u|, which scales with u, for their rounding.

    Non-wrap windows are [s, s+delta] for s in [0, L-delta]; wrap windows are
    [s, L] + [0, s+delta-L] for s in [L-delta, L].  The window integral is
    linear in s between the grid points below, so each piece is solved in
    closed form: it qualifies when its right end is within the bound or it
    crosses +bound or -bound, and the rightmost qualifying piece answers, so
    that when many windows qualify the remainder sits at the tail of P (the
    even-chop convention).
    """
    slack = 1e-12 * float(np.abs(np.diff(comp.h_pref)).sum())
    ln, edges = comp.length, comp.comp_edges
    lo_s, hi_s = (ln - delta, ln) if wrap else (0.0, ln - delta)
    shift = ln - delta if wrap else -delta       # adding -delta subtracts delta exactly
    grid = np.unique(np.clip(np.concatenate([edges, edges + shift, [lo_s, hi_s]]), lo_s, hi_s))
    val = ((comp.h(ln) - comp.h(grid)) + comp.h(grid - (ln - delta)) if wrap
           else comp.h(grid + delta) - comp.h(grid))
    ends = np.abs(val) <= bound + slack
    crosses = [(val[:-1] - t) * (val[1:] - t) < 0 for t in (bound, -bound)]
    ok = ends.copy()
    ok[1:] |= crosses[0] | crosses[1]
    if not ok.any():
        return None
    j = int(np.flatnonzero(ok)[-1])
    if ends[j]:
        return float(grid[j])
    s0, s1, i0, i1 = grid[j - 1], grid[j], val[j - 1], val[j]
    return float(max(s0 + (t - i0) * (s1 - s0) / (i1 - i0)
                     for t, cross in zip((bound, -bound), crosses) if cross[j - 1]))


def split_with_small_remainder(u, p: IntervalSet, beta: float) -> SplitResult:
    """Split P into ceil(|P|/beta) ordered parts: all but one of measure beta,
    the leftover of measure delta <= beta with |integral| <= |int_P u|/N.

    ``u`` is a step function given as a vector of cell values (for a step
    graphon pass one row of ``w.values``).
    """
    length = p.measure
    if length <= _EPS:
        raise ValueError("empty interval set")
    if not 0 < beta < length:
        raise ValueError("beta out of range (0, measure(P))")
    n_parts = max(1, int(math.ceil(length / beta - 1e-12)))
    delta = length - beta * (n_parts - 1)
    if delta <= _EPS or delta > beta + _EPS:
        raise ValueError("degenerate remainder measure %g" % delta)

    comp = _Compressed(u, p)
    total = float(comp.h(comp.length))
    if total == 0.0:
        raise ValueError("integral of u over P vanishes")
    bound = abs(total) / n_parts

    if n_parts == 1:
        return SplitResult(parts=(p,), remainder=p,
                           remainder_integral=interval_set_integral(u, p),
                           target_bound=bound)

    # a window that does not wrap need not exist (Levy's universal chord
    # theorem); the averaging argument guarantees one of the cyclic windows
    start = _first_window(comp, delta, bound, wrap=False)
    wrapped = start is None
    if wrapped:
        start = _first_window(comp, delta, bound, wrap=True)
    if start is None:
        raise ArithmeticError("no small-integral window found")

    if wrapped:
        remainder = IntervalSet(comp.to_real(start, comp.length).intervals
                                + comp.to_real(0.0, start + delta - comp.length).intervals)
    else:
        remainder = comp.to_real(start, start + delta)

    # chop what is left by arc length: part i is the range [i beta, (i+1) beta)
    # of the leftover, read from the origin and stepping over the remainder
    # window at start (the leftover of a wrapped window ends at start, so its
    # second piece lies past the end and comes back empty)
    origin = start + delta - comp.length if wrapped else 0.0
    parts = []
    for i in range(n_parts - 1):
        c0, c1 = origin + i * beta, origin + (i + 1) * beta
        parts.append(IntervalSet(comp.to_real(c0, min(c1, start)).intervals
                                 + comp.to_real(max(c0, start) + delta, c1 + delta).intervals))
    parts.append(remainder)
    return SplitResult(parts=tuple(parts), remainder=remainder,
                       remainder_integral=interval_set_integral(u, remainder),
                       target_bound=bound)


# ---------------------------------------------------------------------------
# density-preserving shrink

def _top_cells(sums, count):
    """Mask of the count largest sums; ties go to the lower index."""
    mask = np.zeros(len(sums), dtype=bool)
    mask[np.argsort(-sums, kind="stable")[:count]] = True
    return mask


def pigeonhole_shrink(f: StepGraphon, rows: CellSet, cols: CellSet, alpha: float):
    """Shrink the product rows x cols to an alpha-fraction on each side while
    not decreasing the average of f (assuming the starting integral is
    positive).  Returns (rowSubset, colSubset).

    Pigeonhole: the l rows with the largest sums over cols average at least
    the mean row, and so do the l columns with the largest sums over those
    rows.  Further best responses (rows given the columns, then columns given
    the rows) only raise the box sum; they repeat while it grows at all, and
    the density check is relative, so the units of f do not matter.
    """
    q = f.n
    if rows.resolution != q or cols.resolution != q:
        raise ValueError("cell sets must live at the graphon resolution")
    k = len(rows.indices)
    if k == 0 or len(cols.indices) == 0:
        raise ValueError("empty cell set")
    if len(cols.indices) != k:
        raise ValueError("cell sets must have equal measure")
    share = alpha * k
    l = int(round(share)) if math.isfinite(share) else 0
    if abs(l - share) > 1e-9 or not 1 <= l <= k:
        raise ValueError("alpha*|set| must be a whole number of cells in [1, |set|]")

    b = f.values[np.ix_(rows.as_array(), cols.as_array())] / (q * q)
    total = b.sum()
    if not total > 0:
        raise ValueError("nonpositive starting integral")
    target_density = total / ((k / q) * (k / q))

    j_in = np.ones(k, dtype=bool)
    box = -np.inf
    while True:
        i_in = _top_cells(b[:, j_in].sum(axis=1), l)
        j_in = _top_cells(b[i_in].sum(axis=0), l)
        grown = b[np.ix_(i_in, j_in)].sum()
        if grown <= box:
            break
        box = grown

    density = grown / ((l / q) * (l / q))
    if density < target_density * (1 - 1e-9):
        raise AssertionError("density guarantee missed: %g < %g"
                             % (density, target_density))
    row_idx = tuple(rows.indices[i] for i in np.flatnonzero(i_in))
    col_idx = tuple(cols.indices[j] for j in np.flatnonzero(j_in))
    return CellSet(q, row_idx), CellSet(q, col_idx)
