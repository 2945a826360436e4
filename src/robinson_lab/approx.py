"""Robinson approximation of a step graphon via window suprema.

The key quantity is the upper-left window supremum at a point (x, y): the
largest average of w over S x T where S sits in [0, x], T sits in [y, 1] and
both have measure alpha (empty family -> 0).  Sampling it on a grid, taking
the monotone envelope and reflecting yields a Robinson step function whose
cut-norm distance to w is controlled by the deviation score.

For step graphons the supremum is attained at an extreme point of the
availability polytope (the objective is linear in each cell's membership),
which is what the exact mode enumerates; the heuristic mode alternates
fractional-knapsack best responses from a fixed family of starts and is a
deterministic lower bound.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import threading

import numpy as np

from .core import StepGraphon, _whole_number, is_robinson

GUARD = 1e-15                  # feasibility slack on measures
EXTREME_POINT_BUDGET = 200_000  # exact-mode enumeration size limit
BLOCK_CELLS = 1 << 16          # grid points x cells per block of the window search
ROUNDS = 40                    # alternation rounds per start of the window search
SHARED_RATIO = 4               # auto: shared exact search up to this many extreme
                               # points per grid point (README design notes)


# ---------------------------------------------------------------------------
# window integrals, from the overlap of each window with each cell

def _window_weights(anchors, width, n, side):
    """Length of the window [a - width, a] (side='left') or [a, a + width]
    (side='right') inside each cell of 1/n, one row per anchor a.

    Each length comes from the anchor and the width, never from a rounded
    a -/+ width, so a window far narrower than a's rounding step keeps its
    size: ``to_edge`` runs from the anchor to the cell's far edge, ``from_end``
    from the window's far end to the cell's near edge.  A cell the window
    covers gets exactly 1/n, which (c+1)/n - c/n is not at every n."""
    a = np.asarray(anchors, dtype=np.float64)[:, None]
    lo, hi = np.arange(n) / n, (np.arange(n) + 1) / n
    if side == "left":
        to_edge, from_end = a - lo, (hi - a) + width
    else:
        to_edge, from_end = hi - a, (a - lo) + width
    # the anchor lies at or past the cell, and the window's far end at or
    # beyond the cell's far edge; decided on the floats (README design notes)
    whole = (to_edge >= hi - lo) & (to_edge <= width)
    return np.where(whole, 1.0 / n, np.clip(np.minimum(to_edge, from_end), 0.0, width))


def _box_averages(w: StepGraphon, alpha, xs, ys):
    """Average of w over [x - alpha, x] x [y, y + alpha] for every x in xs
    (rows) and every y in ys (columns): one product A v B^T of the two sides'
    window weights, divided by alpha^2."""
    a = _window_weights(xs, alpha, w.n, "left")
    b = _window_weights(ys, alpha, w.n, "right")
    return a @ w.values @ b.T / (alpha * alpha)


def diagonal_band_integral(w: StepGraphon, halfwidth: float) -> float:
    """Integral of w over the band |x - y| <= halfwidth, exact.

    In a cell at diagonal offset k = j - i the band covers
    A(h - k/n) - A(-h - k/n), with A the (triangular) area function of
    y - x over one cell, so each diagonal of w is summed once."""
    n = w.n
    h = float(halfwidth)
    if np.isnan(h):
        raise ValueError("halfwidth must be a number")
    if h <= 0:
        return 0.0
    c = 1.0 / n

    def area_below(t):      # area of {y - x <= t} in a c x c cell
        t = np.clip(t, -c, c)
        return np.where(t < 0, 0.5 * (c + t) ** 2, c * c - 0.5 * (c - t) ** 2)

    i, j = np.indices((n, n))
    diag = np.bincount((j - i + n - 1).ravel(), weights=w.values.ravel())
    k = np.arange(1 - n, n) * c
    return float(diag @ (area_below(h - k) - area_below(-h - k)))


# ---------------------------------------------------------------------------
# fractional knapsack responses

def _knap_fill_batch(scores, caps, alpha, minimize=False):
    """Best response of one window side: fill mass alpha through caps,
    preferring large scores (or small ones when minimising).  Batched over
    rows; returns the fill matrix (shape of ``caps``).  Closed cells may
    carry cap 0 or -inf (see :func:`_signed_caps`).  A 1-D ``scores`` is
    one row shared by every row of ``caps``: it is sorted once, and its order
    gathers and scatters whole columns."""
    g = np.asarray(scores, dtype=np.float64)
    sign = 1.0 if minimize else -1.0
    order = np.argsort(sign * g, axis=-1, kind="stable")
    shared = order.ndim == 1
    cs = np.maximum(caps[:, order] if shared else np.take_along_axis(caps, order, axis=1), 0.0)
    cum = np.cumsum(cs, axis=1)
    fill = np.clip(alpha - (cum - cs), 0.0, cs)
    out = np.empty_like(fill)
    if shared:
        out[:, order] = fill
    else:
        np.put_along_axis(out, order, fill, axis=1)
    return out


def _signed_caps(caps):
    """Caps with every closed cell (cap 0) set to -inf, so that one array
    both fills and masks: ``caps * inf`` is +inf on open cells and -inf on
    closed ones."""
    return np.where(caps > 0, caps, -np.inf)


def _knap_fill_top(scores, caps, alpha, kk):
    """:func:`_knap_fill_batch` (maximising) that sorts only the ``kk`` best
    open cells of each row; ``caps`` are signed.  A sort of the keys' values
    gives the next key, and the slice is the cells whose key lies below it.
    Same bits: closed cells sort last and add exact zeros, the slice is
    sorted stably in index order, and a row whose slice cannot decide its
    fill (its boundary key ties the slice, or the slice holds at most
    alpha + 1e-9 of mass while open cells lie outside it) takes the full
    sort.  A row with at most kk open cells takes them all, padded with
    closed cells.  One row, or kk >= n, takes the full sort outright."""
    g = np.asarray(scores, dtype=np.float64)
    p_cnt, n = g.shape
    if kk >= n or p_cnt < 2:
        return _knap_fill_batch(g, caps, alpha)
    key = caps * np.inf                        # -g on open cells, +inf on
    np.negative(np.minimum(key, g, out=key), out=key)   # closed ones (sort last)
    srt = np.sort(key, axis=1)
    nxt = srt[:, kk]
    tie = srt[:, kk - 1] == nxt                # the kk smallest keys are no value cut
    top = key < nxt[:, None]
    if tie.any():
        few = tie & np.isinf(nxt)              # at most kk open cells: all of them,
        pad = ~top[few]                        # padded with the first closed ones
        top[few] |= pad & (pad.cumsum(axis=1) <= kk - n + pad.sum(axis=1)[:, None])
        top[tie & ~few] = np.arange(n) < kk    # any kk cells: these rows are redone
    row = np.arange(p_cnt)[:, None]
    flat = np.flatnonzero(top).reshape(p_cnt, kk)      # flat indices, rows in order
    ks = key.take(flat)
    flat = flat.take(np.argsort(ks, axis=1, kind="stable") + row * kk)
    cs = np.maximum(caps.take(flat), 0.0)
    cum = np.cumsum(cs, axis=1)
    fill = np.clip(alpha - (cum - cs), 0.0, cs)
    out = np.zeros_like(g)
    out.put(flat, fill)
    redo = np.isfinite(nxt) & (tie | (cum[:, -1] <= alpha + 1e-9))
    if redo.any():
        out[redo] = _knap_fill_batch(g[redo], caps[redo], alpha)
    return out


def _availability(points, n, side):
    """Availability caps per cell for S in [0, x] (side='left') or
    T in [y, 1] (side='right'); ``points`` is the array of x or y values."""
    p = np.asarray(points, dtype=np.float64)[:, None]
    edges_lo = np.arange(n)[None, :] / n
    edges_hi = (np.arange(n)[None, :] + 1) / n
    if side == "left":
        return np.clip(np.minimum(edges_hi, p) - edges_lo, 0.0, 1.0 / n)
    return np.clip(edges_hi - np.maximum(edges_lo, p), 0.0, 1.0 / n)


def _t_starts(v, alpha, b_caps):
    """The five deterministic starts for the T side, built one at a time.
    The score rows are shared by every point, so each is sorted once."""
    asc = np.arange(b_caps.shape[1], dtype=np.float64)
    yield _knap_fill_batch(asc, b_caps, alpha, minimize=True)             # hug y
    yield _knap_fill_batch(asc, b_caps, alpha, minimize=False)            # hug 1
    uni = np.maximum(b_caps, 0.0)
    yield uni * (alpha / uni.sum(axis=1, keepdims=True))                  # spread
    yield _knap_fill_batch(v.mean(axis=0), b_caps, alpha)                 # heavy cols
    mid = np.abs(asc - (asc.size - 1) / 2.0)
    yield _knap_fill_batch(mid, b_caps, alpha, minimize=True)             # middle


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # no affinity call on this platform
        return os.cpu_count() or 1


def _ul_heuristic_block(v, alpha, xs, ys):
    """Alternating maximisation of the window average at the query points
    (xs[k], ys[k]), all points in one set of array operations.  Returns the
    best value per point, already divided by alpha^2.  Every point must have
    room on both sides (see :func:`ul_sup`); both callers check that.

    Each point runs the five starts one after another.  Within a start it
    alternates knapsack responses and keeps a running maximum of its value
    until its T side comes back unchanged or ``ROUNDS`` rounds have run.  The
    S response is a function of t alone, so such a point is at a fixed point:
    its value repeats, already counted, and the point drops out.  A point
    whose new T is the fixed point an earlier start ended at drops out too:
    from there it would repeat that start's last round, whose value is also
    counted.  So a point also skips a start whose T is an earlier start's T
    or fixed point.  A one-row product does not give its row the bits that
    row gets in a larger product (numpy routes it to gemv), so when two or
    more points remain a frozen point pads the active set to at least two
    rows.  A fill gives mass to at most floor(alpha n) + 2 cells (caps are at
    most 1/n), so the responses sort only floor(alpha n) + 3 cells per row,
    and only the columns [0, s_hi) (S) or [t_lo, n) (T) that some point of
    the block has open; the products stay n wide (a narrower one moves bits).

    Points never interact, so a point's value is that of searching it alone
    whenever BLAS gives each row of a product of two or more rows the same
    bits in every such product, which does not hold at every n (see README).
    """
    n = v.shape[0]
    uy, inv = np.unique(ys, return_inverse=True)    # the T side depends on y alone
    a_caps = _availability(xs, n, "left")
    b_caps = _signed_caps(_availability(uy, n, "right"))
    s_hi = n - int(np.argmax(np.any(a_caps > 0, axis=0)[::-1]))
    t_lo = int(np.argmax(np.any(b_caps > 0, axis=0)))
    a_win, b_win = _signed_caps(a_caps[:, :s_hi]), b_caps[inv, t_lo:]
    kk = int(alpha * n) + 3
    best = np.full(len(xs), -np.inf)
    starts, ends = [], []   # earlier starts (per distinct y), their fixed points (NaN: none)
    for start in _t_starts(v, alpha, b_caps):
        moving = np.ones(len(uy), dtype=bool)
        for e in starts:    # a start that repeats an earlier one replays it
            moving &= np.any(start != e, axis=1)
        starts.append(start)
        rows, a, b, t, moving = np.arange(len(xs)), a_win, b_win, start[inv], moving[inv]
        for e in ends:
            moving &= np.any(t != e, axis=1)
        end = np.full(t.shape, np.nan)
        for _ in range(ROUNDS):
            n_moving = np.count_nonzero(moving)
            if n_moving == 0:
                break
            if n_moving == 1 and moving.size > 1:
                moving[np.argmin(moving)] = True      # pad with a frozen row
            if not moving.all():
                rows, a, b, t = rows[moving], a[moving], b[moving], t[moving]
            s = np.zeros(t.shape)
            s[:, :s_hi] = _knap_fill_top((t @ v)[:, :s_hi], a, alpha, kk)
            sv = s @ v
            t_new = np.zeros(t.shape)
            t_new[:, t_lo:] = _knap_fill_top(sv[:, t_lo:], b, alpha, kk)
            best[rows] = np.maximum(best[rows], np.einsum("ij,ij->i", sv, t_new))
            moving = np.any(t_new != t, axis=1)
            end[rows[~moving]] = t_new[~moving]
            for e in ends:          # at an earlier start's fixed point, whose
                moving &= np.any(t_new != e[rows], axis=1)      # last round repeats
            t = t_new
        ends.append(end)
    return best / (alpha * alpha)


def _ul_heuristic_many(v, alpha, xs, ys):
    """:func:`_ul_heuristic_block` over many query points, in blocks of about
    ``BLOCK_CELLS`` cells (P n cells in all for P points, at least two points
    a block).  Up to one thread per usable CPU, the caller's among them, takes
    the next block whenever it is free and runs it to the end into its own
    slice of the result, so the values depend on the block layout only
    through BLAS (see :func:`_ul_heuristic_block`), never on the threads."""
    p_cnt, n = len(xs), v.shape[0]
    if not p_cnt:
        return np.empty(0)
    n_blk = max(1, min(p_cnt // 2, p_cnt * n // BLOCK_CELLS))
    edges = np.arange(n_blk + 1) * p_cnt // n_blk
    workers = min(_usable_cpus(), n_blk)
    out = np.empty(p_cnt)
    blocks = zip(edges[:-1], edges[1:])
    lock = threading.Lock()

    def drain():
        """Searches the next block until none is left."""
        while True:
            with lock:
                lo, hi = next(blocks, (None, None))
            if lo is None:
                return
            out[lo:hi] = _ul_heuristic_block(v, alpha, xs[lo:hi], ys[lo:hi])

    if workers == 1:
        drain()
        return out
    # imported here: it brings in logging, a few ms at the start of every
    # process, also of those that never search more than one block
    from concurrent.futures import ThreadPoolExecutor
    # the caller's thread searches too: a pool with the caller only waiting
    # gave the same values at a higher peak RSS (README design notes)
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for done in helpers:
            done.result()
    return out


def _extreme_side_vectors(caps, alpha, chunk=4096):
    """Walk the extreme points of {0 <= s <= caps, sum s = alpha}, each once.

    Yields (rows, last) per ``chunk`` subsets, in walk order: the points and
    each one's last support cell.  A point takes full caps on a subset F and
    the rest on at most one more cell, which it leaves more than GUARD below
    its cap (a cell filled to its cap is in F).  |F| runs from the fewest
    largest caps that reach alpha (one fewer where they pass it by more than
    GUARD) to the most smallest caps that fit under it.  The caps must hold
    alpha (:func:`ul_sup` checks room), so all of them are taken even where
    their rounded sum falls short.  Raises past ``EXTREME_POINT_BUDGET``
    points (use the heuristic).
    """
    active = np.flatnonzero(caps > GUARD)
    m = len(active)
    asc = np.sort(caps[active])
    top = np.cumsum(asc[::-1])
    kmin = min(int(np.searchsorted(top, alpha - GUARD)) + 1,
               int(np.searchsorted(top, alpha + GUARD, side="right")))
    kmax = int(np.searchsorted(np.cumsum(asc), alpha + GUARD, side="right"))
    count = 0
    for k in range(kmin, min(kmax, m) + 1):
        walk = itertools.combinations(active.tolist(), k)
        while subsets := list(itertools.islice(walk, chunk)):
            idx = np.array(subsets, dtype=np.intp).reshape(len(subsets), k)
            rem = alpha - caps[idx].sum(axis=1)
            # column 0: the subset reaches alpha alone; column c + 1: it falls
            # short and free cell c takes the rest with room to spare (no such
            # column where no subset of the chunk falls short)
            short = (rem > GUARD) & (k < m)
            opt = ((rem >= -GUARD) & ~short)[:, None]
            if short.any():
                opt = np.column_stack((opt, caps - GUARD > np.where(short, rem, np.inf)[:, None]))
                opt[np.arange(len(idx))[:, None], idx + 1] = False
            sub, col = np.divmod(np.flatnonzero(opt), opt.shape[1])
            count += len(sub)
            if count > EXTREME_POINT_BUDGET:
                raise ValueError("exact mode: extreme-point budget %d exceeded; "
                                 "use the heuristic" % EXTREME_POINT_BUDGET)
            if not len(sub):
                continue
            full, split = idx[sub], np.flatnonzero(col)
            rows = np.zeros((len(sub), len(caps)))
            rows[np.arange(len(sub))[:, None], full] = caps[full]
            rows[split, col[split] - 1] = rem[sub[split]]
            # combinations keep active's order: a subset's last cell is its largest
            yield rows, np.maximum(full[:, -1:].max(axis=1, initial=-1), col - 1)


def ul_sup(w: StepGraphon, x: float, y: float, alpha: float, mode: str = "exact") -> float:
    """Upper-left window supremum at (x, y).

    sup of the average of w over S x T with S in [0,x], T in [y,1],
    |S| = |T| = alpha; 0 when either side lacks room (sup over an empty
    family), even for signed w.  Room is decided on the coordinates, as in
    :func:`_corner_points`: a sum of caps can round below a side's measure.

    exact mode enumerates extreme points of the smaller side and answers the
    other side by fractional knapsack (valid because the optimum of a
    bilinear form over a product of polytopes sits at a pair of extreme
    points); heuristic mode alternates knapsack responses from five
    deterministic starts and never exceeds the exact value.
    """
    if not (0 <= x <= y <= 1):
        raise ValueError("need 0 <= x <= y <= 1")
    if not (GUARD < alpha < 1):
        raise ValueError("alpha must lie in (GUARD, 1), GUARD = %g" % GUARD)
    if mode not in ("exact", "heuristic"):
        raise ValueError("mode must be exact or heuristic")
    if not (x >= alpha - GUARD and 1.0 - y >= alpha - GUARD):
        return 0.0
    if mode == "heuristic":
        return float(_ul_heuristic_block(w.values, alpha, np.array([x]), np.array([y]))[0])
    a = _availability([x], w.n, "left")[0]
    b = _availability([y], w.n, "right")[0]
    # enumerate the sparser side; the graphon is symmetric so swapping sides
    # just transposes the objective
    na, nb = int(np.count_nonzero(a > GUARD)), int(np.count_nonzero(b > GUARD))
    enum, other = (a, b) if na <= nb else (b, a)
    ext = [rows for rows, _ in _extreme_side_vectors(enum, alpha)]
    scores = np.concatenate([np.zeros((0, w.n))] + ext) @ w.values
    resp = _knap_fill_batch(scores, np.broadcast_to(other, scores.shape), alpha)
    vals = np.einsum("ij,ij->i", scores, resp)
    return float(vals.max() / (alpha * alpha)) if len(vals) else 0.0


def _full_cells(alpha, n):
    """(K, whole): an extreme point of one side over whole cells of 1/n has K
    full cells, and unless ``whole`` (alpha - K/n within GUARD of 0) one more
    cell holds the rest."""
    k = int(np.floor(alpha * n + n * GUARD))
    return k, alpha - k / n <= GUARD


def _vertex_count(m, alpha, n):
    """How many distinct extreme points one side has over m whole cells of
    1/n: each K-subset, times the m - K cells that can hold the rest."""
    k, whole = _full_cells(alpha, n)
    return math.comb(m, k) * (1 if whole else max(m - k, 0))


def _ul_exact_cells(v, alpha, i, j):
    """Exact window suprema at the cell corners (i/n, (j+1)/n) of the n x n
    kernel v, all from one walk of the S side (:func:`_extreme_side_vectors`).
    Every point needs room (see :func:`ul_sup`).

    The S caps at x = i/n are cells 0 … i-1 whole, so that side's extreme
    points are those of the largest x whose support lies below i: each is
    scored once, E @ v, and the best T side at every y at once from a
    right-to-left running top-(K+1) of its score row, filled as
    :func:`_knap_fill_batch` fills it (ties to the lower cell).  A prefix
    maximum over the points by last support cell then answers every x.  Each
    point's value is ul_sup's up to rounding: the caps are its, but the
    product rows, the sums and the side enumerated may differ."""
    n = v.shape[0]
    m, lo, hi = int(i.max()), int(j.min()) + 1, int(j.max()) + 1
    d = _availability([1.0], n, "left")[0]          # every cell's cap, as ul_sup's
    k_full, whole = _full_cells(alpha, n)
    kk, span = k_full + 1, hi - lo + 1
    per = 1 if whole else m - k_full                 # extreme points per K-subset
    best = np.full((span, m + 1), -np.inf)           # by y, then last support cell + 1
    step = max(1, 4 * BLOCK_CELLS // (per * max(n, kk * span)))
    for ext, last in _extreme_side_vectors(_availability([m / n], n, "left")[0], alpha, step):
        rows = len(ext)
        score = (ext @ v).T.copy()
        top = np.full((kk, rows), -np.inf)           # the kk best cells from c on,
        cap = np.zeros((kk, rows))                   # and their caps
        top_at = np.empty((kk, span, rows))
        cap_at = np.empty((kk, span, rows))
        for c in range(n - 1, lo - 1, -1):
            s, t = score[c], np.full(rows, d[c])
            for k in range(kk):                      # c goes before every equal score
                sw = s >= top[k]
                s, top[k] = np.minimum(s, top[k]), np.maximum(s, top[k])
                cap[k], t = np.where(sw, t, cap[k]), np.where(sw, cap[k], t)
            if c <= hi:
                top_at[:, c - lo], cap_at[:, c - lo] = top, cap
        vals, cum = np.zeros((span, rows)), np.zeros((span, rows))
        for k in range(kk):                          # _knap_fill_batch's fill
            nxt = cum + cap_at[k]
            fill = np.clip(alpha - (nxt - cap_at[k]), 0.0, cap_at[k])
            vals += np.where(fill > 0, top_at[k], 0.0) * fill
            cum = nxt
        order = np.argsort(last, kind="stable")
        key = last[order] + 1
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        key = key[first]
        best[:, key] = np.maximum(best[:, key], np.maximum.reduceat(vals[:, order], first, axis=1))
    best = np.maximum.accumulate(best, axis=1)
    return best[j + 1 - lo, i] / (alpha * alpha)


# ---------------------------------------------------------------------------
# grid sampling, envelope, closed form

def monotone_envelope(values):
    """Smallest majorant on the upper triangle that is nondecreasing in the
    row index and nonincreasing in the column index; the result is mirrored
    onto the lower triangle.  Idempotent.

    Entry (i, j), j >= i, becomes the maximum over i' <= i, j' >= j: a
    reversed running maximum along each row, then one down each column.
    That block lies in the upper triangle, so lower entries never enter."""
    g = np.asarray(values, dtype=np.float64)
    m = g.shape[0]
    if g.ndim != 2 or g.shape[1] != m:
        raise ValueError("square matrix expected")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix contains non-finite entries")
    e = np.maximum.accumulate(g[:, ::-1], axis=1)[:, ::-1]
    e = np.maximum.accumulate(e, axis=0)
    iu = np.triu_indices(m, 1)
    e[(iu[1], iu[0])] = e[iu]
    return e


@dataclasses.dataclass(frozen=True)
class RobinsonApprox:
    """A Robinson step-function approximation on a g x g grid."""
    values: np.ndarray
    alpha: float
    grid_n: int
    mode: str                  # "exact", "heuristic", "closed-form" or "identity"
    robinson_validated: bool

    def as_graphon(self) -> StepGraphon:
        return StepGraphon(self.values)


def _grid_size(w, grid_n):
    """The grid resolution: ``grid_n``, or the kernel's own when None."""
    return _whole_number(w.n if grid_n is None else grid_n, 1,
                         "grid_n must be a positive integer")


def _robinson_tol(w):
    """The Robinson tolerance of every check here (the alpha = 0 input, the
    closed form's input, both outputs), of recovery's alpha = 0 test and of
    the CLI selftest: 1e-12 of w's sup norm, so the verdict does not depend
    on the units of w."""
    return 1e-12 * float(np.abs(w.values).max())


def _corner_points(grid_n, alpha):
    """Conservative evaluation corners for every upper-triangle cell: cell
    (i, j) is scored at x = i/g, y = (j+1)/g, the corner where the window
    family is smallest, so the sampled step function never exceeds the
    underlying window supremum on that cell."""
    g = grid_n
    i, j = np.triu_indices(g)
    xs = i / g
    ys = (j + 1) / g
    feasible = (xs >= alpha - GUARD) & (1.0 - ys >= alpha - GUARD)
    return i, j, xs, ys, feasible


def robinson_approx(w: StepGraphon, alpha: float, grid_n: int | None = None,
                    mode: str = "auto") -> RobinsonApprox:
    """Robinson approximation: sample the window supremum on a grid, take the
    monotone envelope, reflect.

    alpha = 0 is allowed only when w is already Robinson, within 1e-12 of its
    sup norm, and the grid is its own (returns a read-only copy of w).

    Exact mode on the kernel's own grid (g = n) runs one shared enumeration
    for every grid point (:func:`_ul_exact_cells`); on another grid, or past
    ``EXTREME_POINT_BUDGET`` shared extreme points, it calls :func:`ul_sup`
    per point.  Mode "auto" picks exact when n <= 12 and g <= 32, and at
    g = n also when the shared enumeration has at most ``SHARED_RATIO``
    extreme points per grid point, which it counts in closed form before
    enumerating anything; otherwise the alternating heuristic.
    """
    g = _grid_size(w, grid_n)
    if mode not in ("auto", "exact", "heuristic"):
        raise ValueError("mode must be auto, exact or heuristic")
    if alpha == 0:
        if g != w.n:
            raise ValueError("alpha=0 returns the %dx%d input itself, so grid_n must be %d, "
                             "not %d" % (w.n, w.n, w.n, g))
        chk = is_robinson(w, _robinson_tol(w))
        if not chk.robinson:
            raise ValueError("alpha=0 demands a Robinson input (witness %s)" % (chk.witness,))
        vals = np.array(w.values)
        vals.flags.writeable = False
        return RobinsonApprox(values=vals, alpha=0.0, grid_n=w.n,
                              mode="identity", robinson_validated=True)
    if not (GUARD < alpha < 1):
        raise ValueError("alpha must be 0 or lie in (GUARD, 1), GUARD = %g" % GUARD)

    i, j, xs, ys, feasible = _corner_points(g, alpha)
    pts = int(np.count_nonzero(feasible))
    # at g = n one enumeration serves every point, costed before it runs
    shared = _vertex_count(int(i[feasible].max()), alpha, g) if g == w.n and pts else None
    if mode == "auto":
        cheap = shared is not None and shared <= min(EXTREME_POINT_BUDGET, SHARED_RATIO * pts)
        mode = "exact" if (w.n <= 12 and g <= 32) or cheap else "heuristic"
    vals = np.zeros(len(i))
    if mode == "heuristic":
        vals[feasible] = _ul_heuristic_many(w.values, alpha, xs[feasible], ys[feasible])
    elif shared is not None and shared <= EXTREME_POINT_BUDGET:
        vals[feasible] = _ul_exact_cells(w.values, alpha, i[feasible], j[feasible])
    else:
        for k in np.flatnonzero(feasible):
            vals[k] = ul_sup(w, float(xs[k]), float(ys[k]), alpha, mode="exact")

    grid = np.zeros((g, g))
    grid[i, j] = vals
    grid = monotone_envelope(grid)
    out = StepGraphon(grid)
    validated = bool(is_robinson(out, _robinson_tol(out)).robinson)
    grid.flags.writeable = False
    return RobinsonApprox(values=grid, alpha=float(alpha), grid_n=g,
                          mode=mode, robinson_validated=validated)


def closed_form_robinson_ae(w: StepGraphon, alpha: float,
                            grid_n: int | None = None) -> RobinsonApprox:
    """Corner-window average surrogate: at each grid corner the average of w
    over [x-alpha, x] x [y, y+alpha], zero where infeasible.

    Only Robinson inputs are accepted: there the diagonal-hugging window is
    optimal (rows and columns are monotone toward the diagonal), so the raw
    sliding average reproduces :func:`robinson_approx` without any envelope
    pass, giving an independently-coded cross-check.
    """
    if not (GUARD < alpha < 1):
        raise ValueError("alpha must lie in (GUARD, 1), GUARD = %g" % GUARD)
    chk = is_robinson(w, _robinson_tol(w))
    if not chk.robinson:
        raise ValueError("closed form needs a Robinson input (witness %s)" % (chk.witness,))
    g = _grid_size(w, grid_n)
    i, j, _, _, feasible = _corner_points(g, alpha)
    box = _box_averages(w, alpha, np.arange(g) / g, np.arange(1, g + 1) / g)
    grid = np.zeros((g, g))
    grid[i, j] = np.where(feasible, box[i, j], 0.0)
    iu = np.triu_indices(g, 1)
    grid[(iu[1], iu[0])] = grid[iu]
    out = StepGraphon(grid)
    validated = bool(is_robinson(out, _robinson_tol(out)).robinson)
    grid.flags.writeable = False
    return RobinsonApprox(values=grid, alpha=float(alpha), grid_n=g,
                          mode="closed-form", robinson_validated=validated)
