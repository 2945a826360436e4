"""Window suprema/infima, monotone envelope, Robinson approximation."""

import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest

from robinson_lab import (
    StepGraphon,
    closed_form_robinson_ae,
    cumulative_envelope,
    cut_norm_exact,
    is_robinson,
    lp_norm,
    monotone_envelope,
    quadratic_sum,
    robinson_approx,
    smooth_exp,
    toeplitz_decay,
    ul_sup,
)
import robinson_lab.approx as approx_mod
from robinson_lab.approx import (
    EXTREME_POINT_BUDGET,
    _availability,
    _knap_fill_batch,
    _knap_fill_top,
    GUARD,
    _signed_caps,
    _ul_heuristic_many,
)
from window_oracle import lr_inf

AGREE_TOL = 1e-9
LOWER_TOL = 1e-12


# ---------------------------------------------------------------------------
# oracles: direct subset enumeration on cell-aligned queries

def oracle_ul_sup(v, i0, j0, k):
    """Best average over S x T, S a k-subset of cells < i0, T a k-subset of
    cells >= j0.  Exhaustive; only for aligned queries."""
    n = v.shape[0]
    if i0 < k or n - j0 < k:
        return 0.0
    best = -np.inf
    for s in itertools.combinations(range(i0), k):
        for t in itertools.combinations(range(j0, n), k):
            best = max(best, v[np.ix_(s, t)].sum() / (k * k))
    return best


def oracle_lr_inf_aligned(v, k):
    """Min average over ordered pairs of k-subsets of whole cells (S left of
    T, disjoint).  A subfamily of the solver's candidates, so the solver may
    only go lower."""
    n = v.shape[0]
    best = np.inf
    for split in range(k, n - k + 1):
        for s in itertools.combinations(range(split), k):
            for t in itertools.combinations(range(split, n), k):
                best = min(best, v[np.ix_(s, t)].sum() / (k * k))
    return best


def oracle_window_average(v, x1, x2, y1, y2):
    """Plain double loop over cells with explicit overlap lengths."""
    n = v.shape[0]
    total = 0.0
    for i in range(n):
        dx = min((i + 1) / n, x2) - max(i / n, x1)
        if dx <= 0:
            continue
        for j in range(n):
            dy = min((j + 1) / n, y2) - max(j / n, y1)
            if dy > 0:
                total += v[i, j] * dx * dy
    return total / ((x2 - x1) * (y2 - y1))


def dense_starts(v, alpha, b_caps):
    """The five T-side starts of the window search, one row per point."""
    p_cnt, n = b_caps.shape
    colmean = v.mean(axis=0)[None, :].repeat(p_cnt, axis=0)
    asc = np.broadcast_to(np.arange(n, dtype=np.float64)[None, :], (p_cnt, n))
    with np.errstate(invalid="ignore", divide="ignore"):
        tot = b_caps.sum(axis=1, keepdims=True)
        uni = np.where(tot > 0, b_caps * (alpha / tot), 0.0)
    return [_knap_fill_batch(asc, b_caps, alpha, minimize=True),
            _knap_fill_batch(asc, b_caps, alpha, minimize=False),
            uni,
            _knap_fill_batch(colmean, b_caps, alpha),
            _knap_fill_batch(np.abs(asc - (n - 1) / 2.0), b_caps, alpha, minimize=True)]


def dense_ul_heuristic(v, alpha, a_caps, b_caps, iters=40):
    """Every start alternates all rows until the stop test holds for all of
    them.  Also reports whether a round that went on saw exactly one of two
    or more rows change its T side (where the active set needs padding)."""
    p_cnt = len(a_caps)
    best = np.full(p_cnt, -np.inf)
    lone_mover = False
    for t in dense_starts(v, alpha, b_caps):
        prev = np.full(p_cnt, -np.inf)
        for _ in range(iters):
            s = _knap_fill_batch(t @ v, a_caps, alpha)
            t_new = _knap_fill_batch(s @ v, b_caps, alpha)
            val = np.einsum("ij,ij->i", s @ v, t_new)
            if np.all(val <= prev + 1e-14):
                break
            prev = np.maximum(prev, val)
            moved = np.count_nonzero(np.any(t_new != t, axis=1))
            lone_mover |= p_cnt > 1 and moved == 1
            t = t_new
        best = np.maximum(best, prev)
    return best / (alpha * alpha), lone_mover


def per_point_ul_heuristic(v, alpha, xs, ys, iters=40, runs=None):
    """The window search with each point on its own: every start alternates
    all rows together every round, and each row keeps a running maximum over
    the rounds it runs and stops once its T side repeats (or after
    ``iters`` rounds); 0 where a side lacks room.  Also reports whether a
    round saw exactly one of two or more running rows change its T side
    (where the search pads its active set), and the rounds each start ran.
    A list ``runs`` gets the number of running rows of every round."""
    n = v.shape[0]
    room = (xs >= alpha - GUARD) & (1.0 - ys >= alpha - GUARD)
    a_caps = _availability(xs[room], n, "left")
    b_caps = _availability(ys[room], n, "right")
    best = np.full(len(a_caps), -np.inf)
    lone_mover, rounds = False, []
    for t in dense_starts(v, alpha, b_caps):
        running = np.ones(len(a_caps), dtype=bool)
        for k in range(iters):
            if runs is not None:
                runs.append(np.count_nonzero(running))
            s = _knap_fill_batch(t @ v, a_caps, alpha)
            t_new = _knap_fill_batch(s @ v, b_caps, alpha)
            val = np.einsum("ij,ij->i", s @ v, t_new)
            best[running] = np.maximum(best[running], val[running])
            moved = running & np.any(t_new != t, axis=1)
            lone_mover |= np.count_nonzero(running) > 1 and np.count_nonzero(moved) == 1
            running, t = moved, t_new
            if not running.any():
                break
        rounds.append(k + 1)
    out = np.zeros(len(room))
    out[room] = best / (alpha * alpha)
    return out, lone_mover, rounds


def loop_envelope(values):
    """Row-major sweep: each upper entry takes the max of itself, the entry
    above and the entry to its right; then mirror."""
    e = np.array(values, dtype=np.float64)
    m = e.shape[0]
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            val = e[i, j]
            if i > 0:
                val = max(val, e[i - 1, j])
            if j < m - 1:
                val = max(val, e[i, j + 1])
            e[i, j] = val
    iu = np.triu_indices(m, 1)
    e[(iu[1], iu[0])] = e[iu]
    return e


def sym(rng, n, lo=-1.0, hi=1.0):
    m = rng.uniform(lo, hi, (n, n))
    return StepGraphon(0.5 * (m + m.T))


# ---------------------------------------------------------------------------
# upper-left window supremum

def test_ul_sup_constant_and_empty_family():
    w = StepGraphon(np.full((4, 4), 0.6))
    assert ul_sup(w, 0.5, 0.5, 0.25) == pytest.approx(0.6, abs=1e-12)
    # no room on either side -> sup over nothing -> 0, even for negative w
    neg = StepGraphon(np.full((4, 4), -5.0))
    assert ul_sup(neg, 0.05, 0.5, 0.1) == 0.0
    assert ul_sup(neg, 0.5, 0.95, 0.1) == 0.0


def test_ul_sup_decides_room_on_the_coordinates():
    # at 1 - y = alpha = 0.4 and n = 160 the 64 caps of [y, 1] add up to
    # 0.3999999999999988, below alpha - GUARD: a sum of caps sees no room
    w = smooth_exp(160)
    assert _availability([0.6], 160, "right")[0].sum() < 0.4 - GUARD
    for x in (0.4, 0.45):       # from 0.45 on, exact mode enumerates that side
        heur = ul_sup(w, x, 0.6, 0.4, mode="heuristic")
        assert heur > 0.0
        assert ul_sup(w, x, 0.6, 0.4, mode="exact") >= heur - LOWER_TOL


def test_ul_sup_matches_subset_oracle_on_aligned_queries():
    rng = np.random.Generator(np.random.Philox(101))
    for _ in range(25):
        n = int(rng.integers(4, 8))
        w = sym(rng, n, -2, 2)
        k = int(rng.integers(1, 3))
        i0 = int(rng.integers(k, n))
        j0 = int(rng.integers(0, n - k + 1))
        if i0 / n > j0 / n:
            continue
        got = ul_sup(w, i0 / n, j0 / n, k / n, mode="exact")
        assert got == pytest.approx(oracle_ul_sup(w.values, i0, j0, k), abs=1e-12)


def test_ul_sup_heuristic_is_a_lower_bound():
    rng = np.random.Generator(np.random.Philox(102))
    for _ in range(25):
        n = int(rng.integers(4, 9))
        w = sym(rng, n, -1, 3)
        x = float(rng.uniform(0.2, 0.6))
        y = float(rng.uniform(x, 0.8))
        alpha = float(rng.uniform(0.05, 0.18))
        exact = ul_sup(w, x, y, alpha, mode="exact")
        heur = ul_sup(w, x, y, alpha, mode="heuristic")
        assert heur <= exact + LOWER_TOL


def test_exact_mode_walks_only_block_sizes_that_reach_alpha(monkeypatch):
    # 20 open cells a side and alpha = 0.45 = 18 cells: the subsets of fewer
    # than 18 full cells cannot reach alpha, nor put the rest on one more
    # cell short of its cap, and are not walked
    combinations, sizes = itertools.combinations, []

    def spy(pool, k):
        sizes.append(k)
        return combinations(pool, k)

    w = toeplitz_decay(40, seed=1)
    monkeypatch.setattr(approx_mod.itertools, "combinations", spy)
    exact = ul_sup(w, 0.5, 0.5, 0.45, mode="exact")
    monkeypatch.undo()
    assert sizes == [18]
    assert exact >= ul_sup(w, 0.5, 0.5, 0.45, mode="heuristic") - LOWER_TOL


def test_exact_mode_stops_at_the_extreme_point_budget():
    with pytest.raises(ValueError, match="extreme-point budget"):
        ul_sup(toeplitz_decay(44, seed=1), 0.5, 0.5, 0.25, "exact")
    # the budget counts distinct points: C(20, 7) = 77,520 here, where a
    # row for each 7-subset and each of its 6-subsets would be 620,160
    w = toeplitz_decay(40, seed=1)
    assert ul_sup(w, 0.5, 0.5, 7 / 40, "exact") >= ul_sup(w, 0.5, 0.5, 7 / 40,
                                                          "heuristic") - LOWER_TOL


def walk_rows(caps, alpha, chunk=4096):
    """The rows and last support cells of the extreme-point walk, stacked."""
    blocks = list(approx_mod._extreme_side_vectors(caps, alpha, chunk))
    return (np.concatenate([np.zeros((0, len(caps)))] + [r for r, _ in blocks]),
            np.concatenate([np.zeros(0, dtype=np.intp)] + [c for _, c in blocks]))


def reference_extreme_side_vectors(caps, alpha):
    """The per-subset loop form of _extreme_side_vectors: a free cell takes
    the rest only when that leaves it more than GUARD short of its cap.  It
    also walks the subsets one cell smaller than the fewest largest caps
    that reach alpha, which the walk skips where they hold no point."""
    active = np.flatnonzero(caps > GUARD)
    m = len(active)
    a = caps[active]
    asc = np.sort(a)
    kmin = int(np.searchsorted(np.cumsum(asc[::-1]), alpha - GUARD))
    kmax = int(np.searchsorted(np.cumsum(asc), alpha + GUARD, side="right"))
    rows = []
    count = 0
    for k in range(kmin, min(kmax, m) + 1):
        for comb in itertools.combinations(range(m), k):
            idx = list(comb)
            full = float(a[idx].sum()) if k else 0.0
            rem = alpha - full
            if rem < -GUARD:
                continue
            if rem <= GUARD or k == m:
                vec = np.zeros(m)
                vec[idx] = a[idx]
                rows.append(vec[None, :])
                count += 1
            else:
                free = np.setdiff1d(np.arange(m), idx, assume_unique=True)
                good = free[a[free] - GUARD > rem]
                if good.size:
                    block = np.zeros((good.size, m))
                    block[:, idx] = a[idx][None, :]
                    block[np.arange(good.size), good] = rem
                    rows.append(block)
                    count += int(good.size)
            if count > EXTREME_POINT_BUDGET:
                raise ValueError("exact mode: extreme-point budget %d exceeded; "
                                 "use the heuristic" % EXTREME_POINT_BUDGET)
    if not rows:
        return np.zeros((0, len(caps)))
    packed = np.concatenate(rows, axis=0)
    out = np.zeros((packed.shape[0], len(caps)))
    out[:, active] = packed
    return out


def test_extreme_point_walk_matches_the_per_subset_reference():
    # cell-aligned and off-grid corners, alpha on and off the cell lattice,
    # sides of up to 20 open cells (subsets of 8 and more sum pairwise)
    def walk(fn, caps, alpha):
        try:
            return fn(caps, alpha)
        except ValueError as exc:
            return str(exc)

    def stacked(caps, alpha):       # in blocks of 4096 and of 7 subsets alike
        rows, last = walk_rows(caps, alpha)
        small, small_last = walk_rows(caps, alpha, 7)
        assert np.array_equal(small, rows) and np.array_equal(small_last, last)
        assert np.array_equal(last, len(caps) - 1 - np.argmax(rows[:, ::-1] > 0, axis=1))
        return rows

    rng = np.random.Generator(np.random.Philox(117))
    cases = [(40, 0.5, 0.45), (12, 0.25, 0.25), (5, 0.5, 0.05), (20, 0.55, 0.32),
             (44, 0.5, 0.24)]                       # the last one exceeds the budget
    for _ in range(60):
        n = int(rng.integers(2, 17))
        cases.append((n, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.02, 0.5))))
    walked = 0
    for n, x, alpha in cases:
        for side in ("left", "right"):
            caps = _availability([x], n, side)[0]
            got = walk(stacked, caps, alpha)
            want = walk(reference_extreme_side_vectors, caps, alpha)
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got, want)
                walked += got.shape[0] > 0
    assert walked >= 40


# ---------------------------------------------------------------------------
# the exact search shared by every cell corner at g = n

def shared_tol(w, alpha):
    """Rounding allowance between the shared search and per-point ul_sup.
    Each sums K + 1 rounded products per side, in a different order, and
    where the T side is the sparser ul_sup enumerates that side instead: each
    lands within a few units in the last place of max|w| per summed cell."""
    k = approx_mod._full_cells(alpha, w.n)[0]
    return 1e-15 * (k + 1) * float(np.abs(w.values).max())


def test_shared_exact_search_matches_ul_sup_at_every_corner():
    # signed and nonnegative kernels, n = 2 .. 24, alpha n whole (alpha on a
    # cell edge, so the first corner's x is alpha itself) and fractional
    rng = np.random.Generator(np.random.Philox(121))
    kernels = points = same_bits = 0
    while kernels < 200:
        n = int(rng.integers(2, 25))
        w = sym(rng, n, (-1.0, 0.0)[kernels % 2], 1.0)
        if kernels % 4 < 2:
            alpha = int(rng.integers(1, min(3, n // 2) + 1)) / n
        else:
            alpha = float(rng.uniform(0.3, min(2.9, n / 2 - 0.1))) / n
        i, j, xs, ys, feasible = approx_mod._corner_points(n, alpha)
        if not feasible.any():
            continue
        got = approx_mod._ul_exact_cells(w.values, alpha, i[feasible], j[feasible])
        want = np.array([ul_sup(w, float(x), float(y), alpha, mode="exact")
                         for x, y in zip(xs[feasible], ys[feasible])])
        assert np.all(np.abs(got - want) <= shared_tol(w, alpha))
        kernels += 1
        points += len(got)
        same_bits += int(np.count_nonzero(got == want))
    assert points > 5000 and same_bits > points // 2


def test_exact_mode_at_the_kernels_grid_runs_one_shared_search(monkeypatch):
    calls = []
    real = approx_mod.ul_sup
    monkeypatch.setattr(approx_mod, "ul_sup", lambda *a, **k: calls.append(a) or real(*a, **k))
    w = sym(np.random.Generator(np.random.Philox(122)), 10, -1.0, 1.0)
    shared = robinson_approx(w, 0.2, mode="exact")
    assert calls == [] and shared.mode == "exact" and shared.robinson_validated
    # past the budget the per-point walk runs: at n = 10, alpha = 0.2 the
    # shared search has C(8, 2) = 28 extreme points and each point's sparser
    # side at most C(4, 2) = 6
    monkeypatch.setattr(approx_mod, "EXTREME_POINT_BUDGET", 20)
    walked = robinson_approx(w, 0.2, mode="exact")
    assert len(calls) == np.count_nonzero(approx_mod._corner_points(10, 0.2)[4])
    assert walked.mode == "exact"
    assert np.all(np.abs(walked.values - shared.values) <= shared_tol(w, 0.2))


def test_shared_exact_search_is_at_least_the_heuristic():
    rng = np.random.Generator(np.random.Philox(123))
    above = 0
    for n in (16, 20, 24, 32, 40):
        for an in (0.9, 1.5, 2.0, 2.6):
            m = rng.uniform(-0.3, 0.3, (n, n))
            w = StepGraphon(toeplitz_decay(n, seed=n).values + 0.5 * (m + m.T))
            alpha, tol = an / n, shared_tol(w, an / n)
            i, j, xs, ys, feasible = approx_mod._corner_points(n, alpha)
            exact = approx_mod._ul_exact_cells(w.values, alpha, i[feasible], j[feasible])
            heur = _ul_heuristic_many(w.values, alpha, xs[feasible], ys[feasible])
            assert np.all(exact >= heur - tol)
            above += int(np.count_nonzero(exact > heur + tol))
            ex = robinson_approx(w, alpha, mode="exact")
            he = robinson_approx(w, alpha, mode="heuristic")
            assert ex.mode == "exact" and ex.robinson_validated
            assert np.all(ex.values >= he.values - tol)
    assert above > 0            # the heuristic misses somewhere, so this can tell


def test_shared_exact_search_matches_the_closed_form_on_robinson_inputs(monkeypatch):
    monkeypatch.setattr(approx_mod, "ul_sup", None)     # the per-point walk never runs
    makers = (toeplitz_decay, cumulative_envelope, lambda n, seed: smooth_exp(n))
    for n in (9, 16, 24, 31):
        for k, make in enumerate(makers):
            w = make(n, seed=n + k)
            for an in (1.0, 1.5, 2.0, 3.0):
                a = robinson_approx(w, an / n, mode="exact").values
                b = closed_form_robinson_ae(w, an / n).values
                assert np.max(np.abs(a - b)) <= AGREE_TOL * float(np.abs(w.values).max())


def test_auto_mode_prices_the_shared_search_before_it_enumerates(monkeypatch):
    walked = []
    monkeypatch.setattr(approx_mod.itertools, "combinations",
                        lambda *a: walked.append(a) or iter(()))
    monkeypatch.setattr(approx_mod, "_ul_heuristic_many",
                        lambda v, alpha, xs, ys: np.zeros(len(xs)))
    # approx_large's five shapes and criterion 9's
    for n, alpha, grid_n in ((128, 0.2, None), (128, 0.1, None), (64, 0.2, 256),
                             (32, 0.2, 512), (160, 0.2, None), (200, 0.05, None)):
        assert robinson_approx(toeplitz_decay(n, seed=1), alpha, grid_n=grid_n).mode == "heuristic"
    assert walked == []


def test_vertex_count_is_the_number_of_distinct_extreme_points():
    # uniform caps of m whole cells: the walk lists each point once, also
    # where alpha n is whole (n = 16, alpha = 0.25: 1,820 rows and points)
    checked = 0
    for n in range(2, 21):
        for m in sorted({1, n // 2, n - 1, n} - {0}):
            caps = _availability([m / n], n, "left")[0]
            for an in {k + f for k in range(4) for f in (0.0, 0.3, 0.71)}:
                if not 0 < an <= m:
                    continue
                rows = walk_rows(caps, an / n)[0]
                distinct = len(np.unique(np.round(rows * n, 9), axis=0))
                assert len(rows) == distinct == approx_mod._vertex_count(m, an / n, n)
                checked += 1
    assert checked > 300
    for n, alpha, points in ((16, 0.25, 1820), (20, 0.1, 190)):
        caps = _availability([1.0], n, "left")[0]
        assert len(walk_rows(caps, alpha)[0]) == points
        assert approx_mod._vertex_count(n, alpha, n) == points


def test_ul_sup_monotone_in_the_available_room():
    rng = np.random.Generator(np.random.Philox(103))
    w = sym(rng, 6, 0, 2)
    vals = [ul_sup(w, x, 0.7, 0.15) for x in (0.2, 0.4, 0.6, 0.7)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    vals = [ul_sup(w, 0.4, y, 0.15) for y in (0.8, 0.7, 0.5, 0.4)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_ul_sup_quadratic_profile():
    # sum-of-squares graphon: the supremum hugs (x, 1), so it has a closed
    # profile (x^2 - a*x + a^2/3) + (1 - a + a^2/3) independent of y
    n, alpha = 20, 0.1
    w = quadratic_sum(n)
    for x, y in ((0.5, 0.7), (0.2, 0.2), (0.9, 0.9), (0.1, 0.5)):
        want = (x * x - alpha * x + alpha * alpha / 3.0) + (1.0 - alpha + alpha * alpha / 3.0)
        assert ul_sup(w, x, y, alpha, mode="exact") == pytest.approx(want, abs=1e-12)
        assert ul_sup(w, x, y, alpha, mode="heuristic") == pytest.approx(want, abs=1e-12)


def test_ul_sup_validation():
    w = StepGraphon(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ul_sup(w, 0.7, 0.3, 0.1)          # x > y
    with pytest.raises(ValueError):
        ul_sup(w, 0.3, 0.7, 0.0)
    with pytest.raises(ValueError):
        ul_sup(w, 0.3, 0.7, 1.0)
    with pytest.raises(ValueError):
        ul_sup(w, 0.3, 0.7, 0.1, mode="bogus")
    with pytest.raises(ValueError):        # also where the family is empty
        ul_sup(w, 0.05, 0.5, 0.1, mode="bogus")


def test_heuristic_loop_matches_the_dense_reference():
    rng = np.random.Generator(np.random.Philox(112))
    draws = [(p_cnt, False) for p_cnt in (1, 2, 3, 50) for _ in range(8)]
    draws += [(p_cnt, True) for p_cnt in (1, 2, 3, 50)]     # drawn after the others
    lone = above = 0
    for p_cnt, ties in draws:
        n = 40 if ties else int(rng.integers(4, 20))
        v = sym(rng, n, -1, 2).values
        if ties:        # near-ties: a point may improve after the others stall
            v = np.add.outer(np.arange(n), np.arange(n)) % 3 + 1e-15 * v
        alpha = float(rng.uniform(0.05, 0.4))
        xs = rng.uniform(alpha, 1.0, p_cnt)
        ys = np.minimum(xs + rng.uniform(0.0, 1.0, p_cnt), 1.0 - alpha)
        want, lone_mover, _ = per_point_ul_heuristic(v, alpha, xs, ys)
        got = _ul_heuristic_many(v, alpha, xs, ys)
        assert np.array_equal(got, want)
        # each point runs at least the rounds the global stop test gave it
        old, _ = dense_ul_heuristic(v, alpha, _availability(xs, n, "left"),
                                    _availability(ys, n, "right"))
        assert np.all(got >= old)
        above += np.any(got > old)
        lone += lone_mover
    assert lone > 0          # the one-row padding case was exercised
    assert above > 0         # and some point beat the global stop test


def test_a_start_ends_at_an_earlier_starts_fixed_point(monkeypatch):
    # from an earlier start's fixed point a row would only repeat that start's
    # last round, so the search drops it there: it runs fewer rows than the
    # per-point loop, which goes on until the row's own T side repeats, and
    # ends at the same values
    top = approx_mod._knap_fill_top
    rows = []

    def spy(scores, caps, alpha, kk):
        rows.append(len(scores))
        return top(scores, caps, alpha, kk)

    monkeypatch.setattr(approx_mod, "_knap_fill_top", spy)
    for n, g, alpha, seed in ((32, 64, 0.2, 1), (16, 40, 0.25, 3)):
        rng = np.random.Generator(np.random.Philox(seed))
        m = rng.uniform(-0.3, 0.3, (n, n))
        v = toeplitz_decay(n, seed=seed).values + 0.5 * (m + m.T)
        _, _, xs, ys, room = approx_mod._corner_points(g, alpha)
        xs, ys = xs[room], ys[room]
        runs = []
        want, _, _ = per_point_ul_heuristic(v, alpha, xs, ys, runs=runs)
        rows.clear()
        got = approx_mod._ul_heuristic_block(v, alpha, xs, ys)
        assert np.array_equal(got, want)
        assert sum(rows) < 2 * 0.8 * sum(runs)    # two responses a round


def test_a_start_that_repeats_an_earlier_one_runs_no_round(monkeypatch):
    # at y >= 1/2 the cells nearest the middle are those nearest y, so the
    # "middle" start is the "hug y" start and every point skips it; the
    # values stay those of the per-point loop, which runs it again
    starts, top = approx_mod._t_starts, approx_mod._knap_fill_top
    log = []                   # a None per start, then each response's rows

    def starts_spy(v, alpha, b_caps):
        for t in starts(v, alpha, b_caps):
            log.append(None)
            yield t

    def top_spy(scores, caps, alpha, kk):
        log.append(len(scores))
        return top(scores, caps, alpha, kk)

    monkeypatch.setattr(approx_mod, "_t_starts", starts_spy)
    monkeypatch.setattr(approx_mod, "_knap_fill_top", top_spy)
    rng = np.random.Generator(np.random.Philox(118))
    n, alpha = 24, 0.2
    v = sym(rng, n, -1, 2).values
    xs = rng.uniform(alpha, 0.5, 60)
    ys = rng.uniform(0.5, 1.0 - alpha, 60)
    runs = []
    want, _, rounds = per_point_ul_heuristic(v, alpha, xs, ys, runs=runs)
    assert min(rounds) > 0                     # the loop runs every start
    got = approx_mod._ul_heuristic_block(v, alpha, xs, ys)
    assert np.array_equal(got, want)
    middle = log[len(log) - log[::-1].index(None):]
    assert log.count(None) == 5 and middle == []
    assert sum(filter(None, log)) < 2 * sum(runs)


def test_starts_are_built_once_per_distinct_y(monkeypatch):
    # a start depends on y alone: the rows built on the distinct ys, handed
    # out to the points, are the starts built on every point's own caps
    starts = approx_mod._t_starts
    built = []

    def spy(v, alpha, b_caps):
        built.append(len(b_caps))
        return starts(v, alpha, b_caps)

    monkeypatch.setattr(approx_mod, "_t_starts", spy)
    rng = np.random.Generator(np.random.Philox(119))
    for n, g in ((16, 16), (20, 48), (40, 40)):
        v = sym(rng, n, -1, 2).values
        alpha = float(rng.uniform(0.05, 0.4))
        _, _, xs, ys, room = approx_mod._corner_points(g, alpha)
        xs, ys = xs[room], ys[room]
        uy, inv = np.unique(ys, return_inverse=True)
        assert len(uy) < len(ys)
        got = starts(v, alpha, _signed_caps(_availability(uy, n, "right")))
        each = starts(v, alpha, _signed_caps(_availability(ys, n, "right")))
        want = dense_starts(v, alpha, _availability(ys, n, "right"))
        for a, b, c in zip(got, each, want, strict=True):
            assert np.array_equal(a[inv], b) and np.array_equal(b, c)
        built.clear()
        approx_mod._ul_heuristic_block(v, alpha, xs, ys)
        assert built == [len(uy)]


def test_responses_sort_only_the_blocks_open_columns(monkeypatch):
    # blocks of corner points differ in their S and T column windows; the
    # responses over those windows give the dense reference's values
    top = approx_mod._knap_fill_top
    widths = []

    def spy(scores, caps, alpha, kk):
        widths.append(scores.shape[1])
        return top(scores, caps, alpha, kk)

    monkeypatch.setattr(approx_mod, "_knap_fill_top", spy)
    monkeypatch.setattr(approx_mod, "_usable_cpus", lambda: 1)  # S, T, S, T, ...
    rng = np.random.Generator(np.random.Philox(120))
    for n, g, alpha in ((24, 24, 0.2), (16, 40, 0.15)):
        m = rng.uniform(-0.3, 0.3, (n, n))
        v = toeplitz_decay(n, seed=n).values + 0.5 * (m + m.T)
        _, _, xs, ys, room = approx_mod._corner_points(g, alpha)
        xs, ys = xs[room], ys[room]
        monkeypatch.setattr(approx_mod, "BLOCK_CELLS", len(xs) * n // 6)
        want, _, _ = per_point_ul_heuristic(v, alpha, xs, ys)
        widths.clear()
        got = _ul_heuristic_many(v, alpha, xs, ys)
        assert np.array_equal(got, want)
        for side in (widths[0::2], widths[1::2]):
            assert min(side) < n and len(set(side)) > 1


def test_no_feasible_corner_runs_no_window_search(monkeypatch):
    calls = []
    monkeypatch.setattr(approx_mod, "_ul_heuristic_block",
                        lambda *args: calls.append(args))
    w = sym(np.random.Generator(np.random.Philox(121)), 8, -1, 2)
    r = robinson_approx(w, 0.51, mode="heuristic")
    assert calls == []
    assert not r.values.any() and r.robinson_validated


# The most grid points one heuristic window search takes at each kernel size
# that a pinned hash, an acceptance criterion or a benchmark workload uses
# (feasible points, or g (g + 1) / 2 on recover's own grid).
ROWS_AT_SIZE = {16: 741, 20: 210, 24: 300, 32: 46971, 40: 820, 64: 11628,
                128: 5253, 160: 4656, 200: 16290}


@pytest.mark.parametrize("n", sorted(ROWS_AT_SIZE))
def test_blas_gives_a_row_the_same_bits_in_any_product_of_two_or_more_rows(n):
    # the window search's shrinking active sets and its blocks take products
    # over subsets of the grid points, and its results equal the dense
    # loop's only while this holds
    rows = ROWS_AT_SIZE[n]
    rng = np.random.Generator(np.random.Philox(n))
    x = rng.uniform(0.0, 1.0, (rows, n))
    v = rng.uniform(-1.0, 2.0, (n, n))
    full = x @ v
    for m in np.unique(np.geomspace(2, rows, 12).astype(int)):
        for lo in (0, 1, rows - m):
            assert np.array_equal(x[lo:lo + m] @ v, full[lo:lo + m]), (
                "BLAS gives rows of a %d-row product other bits than the %d-row "
                "product at n=%d" % (m, rows, n))


def test_blocked_search_matches_the_dense_reference(monkeypatch):
    search = approx_mod._ul_heuristic_block
    calls = []                 # (thread, lone mover, rounds per start, points)
    running, most = [0], [0]   # blocks running now, and the most at once
    lock = threading.Lock()

    def spy(v, alpha, xs, ys):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        _, lone_mover, rounds = per_point_ul_heuristic(v, alpha, xs, ys)
        calls.append((threading.get_ident(), lone_mover, tuple(rounds), xs))
        try:
            return search(v, alpha, xs, ys)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(approx_mod, "_ul_heuristic_block", spy)
    rng = np.random.Generator(np.random.Philox(4243))
    cases = []                             # (points, n, near-tie kernel)
    for k, p_cnt in enumerate((1, 2, 3, 4, 5, 9, 50, 300)):
        cases += [(p_cnt, (16, 20, 24, 32, 40)[k % 5], False), (p_cnt, 40, True)]
    padded = staggered = False
    for p_cnt, n, ties in cases:
        v = sym(rng, n, -1, 2).values
        if ties:        # near-ties stall some points while others still improve
            v = np.add.outer(np.arange(n), np.arange(n)) % 3 + 1e-15 * v
        alpha = float(rng.uniform(0.05, 0.4))
        xs = rng.uniform(alpha, 1.0, p_cnt)
        ys = np.minimum(xs + rng.uniform(0.0, 1.0, p_cnt), 1.0 - alpha)
        want, _, _ = per_point_ul_heuristic(v, alpha, xs, ys)
        for cells in (n, 40 * n):
            monkeypatch.setattr(approx_mod, "BLOCK_CELLS", cells)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(approx_mod, "_usable_cpus", lambda cpus=cpus: cpus)
                calls.clear()
                most[0] = 0
                got = _ul_heuristic_many(v, alpha, xs, ys)
                assert np.array_equal(got, want)
                blocks = len(calls)
                assert blocks == max(1, min(p_cnt // 2, p_cnt * n // cells))
                # each point (so each block) is searched exactly once, by
                # whichever thread was free: that need not be every thread
                searched = np.concatenate([pts for _, _, _, pts in calls])
                assert np.array_equal(np.sort(searched), np.sort(xs))
                threads = {thread for thread, _, _, _ in calls}
                assert len(threads) <= min(cpus, blocks)
                assert most[0] <= min(cpus, blocks)
                padded |= any(lone for _, lone, _, _ in calls)
                staggered |= len({rounds for _, _, rounds, _ in calls}) > 1
    assert padded            # some block kept a frozen row beside a lone mover
    assert staggered         # some block finished a start while another went on


def test_each_block_is_taken_once_under_thread_contention(monkeypatch):
    # more threads than usable CPUs and a short switch interval, so threads
    # often meet at the shared block iterator; a block handed out twice or
    # lost shows in the call count or the searched points
    threads = approx_mod._usable_cpus() + 2
    search = approx_mod._ul_heuristic_block
    taken = []

    def spy(v, alpha, xs, ys):
        taken.append(xs)
        return search(v, alpha, xs, ys)

    rng = np.random.Generator(np.random.Philox(4244))
    n, alpha = 8, 0.2
    v = sym(rng, n, -1, 2).values
    xs = rng.uniform(alpha, 1.0, 400)
    ys = np.minimum(xs + rng.uniform(0.0, 1.0, 400), 1.0 - alpha)
    want, _, _ = per_point_ul_heuristic(v, alpha, xs, ys)
    monkeypatch.setattr(approx_mod, "_ul_heuristic_block", spy)
    monkeypatch.setattr(approx_mod, "BLOCK_CELLS", 2 * n)
    monkeypatch.setattr(approx_mod, "_usable_cpus", lambda: threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            taken.clear()
            got = _ul_heuristic_many(v, alpha, xs, ys)
            assert np.array_equal(got, want)
            assert len(taken) == 200
            assert np.array_equal(np.sort(np.concatenate(taken)), np.sort(xs))
    finally:
        sys.setswitchinterval(interval)


def test_window_search_leaves_no_thread_behind(monkeypatch):
    search = approx_mod._ul_heuristic_block
    threads = set()

    def spy(v, alpha, xs, ys):
        threads.add(threading.get_ident())
        return search(v, alpha, xs, ys)

    monkeypatch.setattr(approx_mod, "_ul_heuristic_block", spy)
    monkeypatch.setattr(approx_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(approx_mod, "BLOCK_CELLS", 16 * 40)
    before = threading.active_count()
    robinson_approx(toeplitz_decay(16, seed=5), 0.2, grid_n=48, mode="heuristic")
    assert len(threads) <= 2                 # the blocks ran on at most two threads
    assert threading.active_count() == before


def test_a_failing_block_raises_and_leaves_no_thread_behind(monkeypatch):
    search = approx_mod._ul_heuristic_block
    calls = []
    lock = threading.Lock()

    def spy(v, alpha, xs, ys):
        with lock:
            calls.append(xs)
            second = len(calls) == 2
        if second:
            raise RuntimeError("block failed")
        return search(v, alpha, xs, ys)

    rng = np.random.Generator(np.random.Philox(4245))
    n, alpha = 8, 0.2
    v = sym(rng, n, -1, 2).values
    xs = rng.uniform(alpha, 1.0, 40)
    ys = np.minimum(xs + rng.uniform(0.0, 1.0, 40), 1.0 - alpha)
    monkeypatch.setattr(approx_mod, "_ul_heuristic_block", spy)
    monkeypatch.setattr(approx_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(approx_mod, "BLOCK_CELLS", 2 * n)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        _ul_heuristic_many(v, alpha, xs, ys)
    assert threading.active_count() == before


def fill_rows(rng, p_cnt, n, alpha, kk):
    """Scores and caps that cover the top-K kernel's cases: random,
    three-valued and signed-zero scores; availability-like caps, rows with
    at most kk open cells, rows with kk - 1, kk or kk + 1 open cells, rows
    whose open mass is about alpha, and rows whose k-th and next keys are
    zeros of either sign."""
    kind = rng.integers(3)
    if kind == 0:
        scores = rng.normal(size=(p_cnt, n))
    elif kind == 1:
        scores = rng.integers(0, 3, (p_cnt, n)).astype(np.float64)
    else:
        scores = np.where(rng.random((p_cnt, n)) < 0.5, -0.0, 0.0)
        scores[rng.random((p_cnt, n)) < 0.2] = 1.0
    caps = np.zeros((p_cnt, n))
    for score, row in zip(scores, caps):
        shape = rng.integers(6)
        if shape == 0:                            # an availability row
            row[:] = _availability(rng.uniform(0.0, 1.0, 1), n, "right")[0]
        elif shape == 1:                          # random open cells
            row[rng.random(n) < rng.uniform(0.2, 1.0)] = 1.0 / n
        elif shape == 4:                          # kk - 1, kk or kk + 1 open cells
            m = min(max(kk + int(rng.integers(-1, 2)), 1), n)
            row[rng.permutation(n)[:m]] = 1.0 / n
        elif shape == 5:                          # +-0 ties at the k-th key
            row[:] = 1.0 / n
            order = rng.permutation(n)
            score[:] = -1.0
            score[order[:kk - 1]] = 1.0
            zeros = order[kk - 1:kk + 1]
            score[zeros] = np.where(rng.random(len(zeros)) < 0.5, -0.0, 0.0)
        else:                                     # open mass about alpha
            few = min(kk, n)
            m = int(rng.integers(1, few + 1) if shape == 2 else rng.integers(few, n + 1))
            row[rng.permutation(n)[:m]] = (alpha + rng.uniform(-1e-15, 1e-15)) / m
    return scores, caps


def test_top_k_fill_matches_the_full_sort(monkeypatch):
    full = approx_mod._knap_fill_batch
    fallback_rows = []

    def spy(scores, caps, alpha, minimize=False):
        fallback_rows.append(len(scores))
        return full(scores, caps, alpha, minimize)

    monkeypatch.setattr(approx_mod, "_knap_fill_batch", spy)
    rng = np.random.Generator(np.random.Philox(515))
    gated = topk_rows = 0
    for p_cnt in (1, 2, 3, 200):
        for n in (3, 5, 8, 17, 40):
            for _ in range(6):
                alpha = float(rng.uniform(0.05, 0.45))
                kk = int(alpha * n) + 3
                scores, caps = fill_rows(rng, p_cnt, n, alpha, kk)
                want = full(scores, caps, alpha)
                before = len(fallback_rows)
                got = _knap_fill_top(scores, _signed_caps(caps), alpha, kk)
                assert np.array_equal(got, want)
                assert not np.signbit(got).any()
                if kk >= n or p_cnt < 2:
                    gated += 1
                    del fallback_rows[before:]    # the full kernel outright
                else:
                    topk_rows += p_cnt
    assert gated
    assert 0 < sum(fallback_rows) < topk_rows      # some rows fell back, not all


def test_top_k_fill_at_the_boundary_counts_of_open_cells(monkeypatch):
    # kk - 1 open cells are all taken and padded with closed ones, kk or
    # kk + 1 are decided by the value cut, and a +-0 tie at the k-th key
    # (in either order) takes the full sort
    full = approx_mod._knap_fill_batch
    seen = []

    def spy(scores, caps, alpha, minimize=False):
        seen.append(np.array(scores))
        return full(scores, caps, alpha, minimize)

    monkeypatch.setattr(approx_mod, "_knap_fill_batch", spy)
    n, alpha = 12, 0.2
    kk = int(alpha * n) + 3
    rng = np.random.Generator(np.random.Philox(517))
    scores = rng.normal(size=(6, n))
    caps = np.zeros((6, n))
    for r, m in enumerate((kk - 1, kk, kk + 1)):
        caps[r, rng.permutation(n)[:m]] = 1.0 / n
    caps[3:] = 1.0 / n
    scores[3:] = -1.0
    scores[3:, :kk - 1] = 1.0
    scores[3, [kk - 1, kk]] = [0.0, -0.0]
    scores[4, [kk - 1, kk]] = [-0.0, 0.0]
    scores[5, kk - 1] = 0.0                   # no tie: the next key is 1.0
    got = _knap_fill_top(scores, _signed_caps(caps), alpha, kk)
    assert np.array_equal(got, full(scores, caps, alpha))
    assert not np.signbit(got).any()
    assert len(seen) == 1 and np.array_equal(seen[0], scores[3:5])


def test_top_k_fill_falls_back_only_when_the_slice_cannot_decide(monkeypatch):
    full = approx_mod._knap_fill_batch
    seen = []

    def spy(scores, caps, alpha, minimize=False):
        seen.append(np.array(scores))
        return full(scores, caps, alpha, minimize)

    monkeypatch.setattr(approx_mod, "_knap_fill_batch", spy)
    n, alpha = 20, 0.1
    kk = int(alpha * n) + 3
    rng = np.random.Generator(np.random.Philox(516))
    scores = rng.normal(size=(5, n))
    caps = np.full((5, n), 1.0 / n)
    caps[1] = 0.0                        # 3 open cells holding alpha: all in the slice
    caps[1, [2, 9, 15]] = alpha / 3
    scores[2] = np.arange(n) % 2         # ties across the slice boundary
    caps[3] = alpha / (kk + 1)           # the slice holds less than alpha
    scores[4] = -np.arange(n)            # the slice holds alpha + 2e-17; the next
    caps[4, :kk] = alpha / kk            # cell's prefix rounds below alpha and
    caps[4, kk - 1] += 2e-17             # gets a sliver of mass
    caps[4, kk] = 0.5
    got = _knap_fill_top(scores, _signed_caps(caps), alpha, kk)
    assert np.array_equal(got, full(scores, caps, alpha))
    assert len(seen) == 1 and np.array_equal(seen[0], scores[2:])


def pin_input(n, seed):
    """The noisy Toeplitz kernel of the heuristic approximation pins."""
    rng = np.random.Generator(np.random.Philox(seed))
    m = rng.uniform(-0.3, 0.3, (n, n))
    return StepGraphon(toeplitz_decay(n, seed=seed).values + 0.5 * (m + m.T))


def test_heuristic_approximation_bytes_are_pinned():
    pins = {
        (24, 0.2, None, 1): "dc855625ea0c54b9169636a2b8c6fe56cab298f0b21788a09affbeba3e544691",
        (40, 0.1, None, 2): "78ecd15365e93856fba00233ffaecf2630be6a08570dfd05340de489ba4f07fa",
        (16, 0.2, 64, 3): "8001b1a0cd2c7bd76b68a4540668b92c9024c23a4a85d68480799849c4a831a0",
        # five blocks of BLOCK_CELLS, each with its own column windows
        (32, 0.2, 256, 4): "7d67d7d0d1c8cdef5e7263ae1fc72be49939521fd8b58b472660ca20fd4d6337",
        # ten blocks on the kernel's own grid
        (128, 0.1, None, 5): "75556b23d80e6b5c82181358bda3ed3fffe3c0334bf39c094fbd3e8f203b8af8",
    }
    for (n, alpha, grid_n, seed), want in pins.items():
        r = robinson_approx(pin_input(n, seed), alpha, grid_n=grid_n, mode="heuristic")
        assert hashlib.sha256(r.values.tobytes()).hexdigest() == want


def test_window_search_work_on_the_blocked_pin(monkeypatch):
    # knapsack rows the window search sorts on the five-block pin; the search
    # without the repeated-start skip sorted 162,336 (128,202 with it)
    top = approx_mod._knap_fill_top
    rows = []

    def spy(scores, caps, alpha, kk):
        rows.append(len(scores))
        return top(scores, caps, alpha, kk)

    monkeypatch.setattr(approx_mod, "_knap_fill_top", spy)
    robinson_approx(pin_input(32, 4), 0.2, grid_n=256, mode="heuristic")
    assert sum(rows) < 162_336


# ---------------------------------------------------------------------------
# lower-right window infimum

def test_lr_inf_constant_and_no_room():
    w = StepGraphon(np.full((4, 4), 0.6))
    assert lr_inf(w, 0.0, 1.0, 0.25) == pytest.approx(0.6, abs=1e-12)
    assert lr_inf(w, 0.4, 0.6, 0.25) == np.inf


def test_lr_inf_never_above_the_aligned_oracle():
    rng = np.random.Generator(np.random.Philox(104))
    for _ in range(20):
        n = int(rng.integers(4, 7))
        w = sym(rng, n, -2, 2)
        k = int(rng.integers(1, 3))
        got = lr_inf(w, 0.0, 1.0, k / n, mode="exact")
        assert got <= oracle_lr_inf_aligned(w.values, k) + LOWER_TOL


def test_lr_inf_heuristic_never_undershoots_exact():
    rng = np.random.Generator(np.random.Philox(105))
    for _ in range(25):
        n = int(rng.integers(4, 8))
        w = sym(rng, n, -1, 2)
        x = float(rng.uniform(0.0, 0.3))
        y = float(rng.uniform(0.7, 1.0))
        alpha = float(rng.uniform(0.05, 0.2))
        exact = lr_inf(w, x, y, alpha, mode="exact")
        heur = lr_inf(w, x, y, alpha, mode="heuristic")
        assert heur >= exact - LOWER_TOL


# ---------------------------------------------------------------------------
# monotone envelope

def test_monotone_envelope_examples():
    keep = [[3.0, 2.0, 1.0], [2.0, 3.0, 2.0], [1.0, 2.0, 3.0]]
    assert np.array_equal(monotone_envelope(keep), keep)

    raised = monotone_envelope([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(raised, [[1.0, 1.0], [1.0, 1.0]])

    spike = monotone_envelope([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    assert np.array_equal(spike, np.full((3, 3), 2.0))

    with pytest.raises(ValueError):
        monotone_envelope(np.zeros((2, 3)))
    for bad in ([[np.nan, 1.0], [1.0, 0.0]], [[0.0, np.inf], [np.inf, 0.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            monotone_envelope(bad)


def test_monotone_envelope_matches_the_loop_reference():
    rng = np.random.Generator(np.random.Philox(113))
    for m in (1, 2, 3, 7, 16, 64, 200):
        for g in (rng.uniform(-1, 1, (m, m)), rng.integers(0, 3, (m, m)).astype(float)):
            assert np.array_equal(monotone_envelope(g), loop_envelope(g))


def test_monotone_envelope_is_smallest_robinson_majorant():
    rng = np.random.Generator(np.random.Philox(106))
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = rng.uniform(-1, 1, (n, n))
        g = 0.5 * (g + g.T)
        e = monotone_envelope(g)
        assert np.all(e >= g - 1e-15)
        assert is_robinson(StepGraphon(e), 1e-12).robinson
        assert np.array_equal(monotone_envelope(e), e)          # idempotent
        # no smaller majorant: the constant max is monotone, and e is below it
        assert np.all(e <= g.max() + 1e-15)


# ---------------------------------------------------------------------------
# Robinson approximation

def test_robinson_approx_constant_block():
    w = StepGraphon(np.ones((8, 8)))
    want = np.zeros((8, 8))
    want[2:6, 2:6] = 1.0
    for mode in ("exact", "heuristic"):
        r = robinson_approx(w, 0.25, mode=mode)
        assert np.allclose(r.values, want, atol=1e-12)
        assert r.robinson_validated and r.grid_n == 8 and r.mode == mode
        assert is_robinson(r.as_graphon(), 1e-12).robinson


def test_robinson_approx_alpha_zero_paths():
    w = toeplitz_decay(6, seed=3)
    r = robinson_approx(w, 0.0)
    assert r.mode == "identity" and np.array_equal(r.values, w.values)
    assert not r.values.flags.writeable and not np.shares_memory(r.values, w.values)
    assert robinson_approx(w, 0.0, grid_n=6).grid_n == 6
    with pytest.raises(ValueError, match="grid_n must be 6, not 4"):
        robinson_approx(w, 0.0, grid_n=4)
    bad = StepGraphon([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        robinson_approx(bad, 0.0)
    with pytest.raises(ValueError):
        robinson_approx(bad, 1.0)
    with pytest.raises(ValueError):
        robinson_approx(bad, -0.1)
    with pytest.raises(ValueError, match="mode must be auto, exact or heuristic"):
        robinson_approx(w, 0.2, mode="bogus")
    with pytest.raises(ValueError, match="mode must be auto, exact or heuristic"):
        robinson_approx(w, 0.0, mode="bogus")   # checked before the identity path


def test_grid_n_must_be_a_positive_integer():
    w = toeplitz_decay(8, seed=1)
    for bad in (2.5, 0, -3, float("nan"), True):
        with pytest.raises(ValueError, match="grid_n must be a positive integer"):
            robinson_approx(w, 0.25, grid_n=bad)
        with pytest.raises(ValueError, match="grid_n must be a positive integer"):
            robinson_approx(w, 0.0, grid_n=bad)
        with pytest.raises(ValueError, match="grid_n must be a positive integer"):
            closed_form_robinson_ae(w, 0.25, grid_n=bad)
    assert robinson_approx(w, 0.25, grid_n=np.int64(4)).grid_n == 4
    assert robinson_approx(w, 0.25, grid_n=4.0).grid_n == 4


def test_robinson_approx_auto_mode_switch():
    small = robinson_approx(toeplitz_decay(8, seed=1), 0.25)
    assert small.mode == "exact"
    big = robinson_approx(toeplitz_decay(16, seed=1), 0.25)
    assert big.mode == "heuristic"
    # n <= 12 and g <= 32 is exact at any grid; above it, only the kernel's
    # own grid is, and only while the shared search has at most SHARED_RATIO
    # extreme points per grid point (n = 16, alpha = 0.25: 330 for 36)
    assert robinson_approx(toeplitz_decay(8, seed=1), 0.25, grid_n=20).mode == "exact"
    w = toeplitz_decay(40, seed=1)
    assert robinson_approx(w, 1.7 / 40).mode == "exact"          # 1,332 for 666
    assert robinson_approx(w, 2.5 / 40).mode == "heuristic"      # 21,420 for 595
    assert robinson_approx(w, 1.7 / 40, grid_n=80).mode == "heuristic"


def test_every_emitted_approximation_is_robinson():
    rng = np.random.Generator(np.random.Philox(107))
    for trial in range(15):
        n = int(rng.integers(3, 9))
        w = sym(rng, n, -1, 2)
        alpha = float(rng.uniform(0.05, 0.6))
        mode = ("exact", "heuristic")[trial % 2]
        r = robinson_approx(w, alpha, mode=mode)
        assert r.robinson_validated
        assert is_robinson(r.as_graphon(), 1e-12).robinson


def test_pointwise_sandwich_for_ordered_inputs():
    rng = np.random.Generator(np.random.Philox(108))
    for _ in range(10):
        n = int(rng.integers(3, 7))
        u = sym(rng, n, 0, 1)
        d = sym(rng, n, 0, 1)
        d = StepGraphon(np.abs(d.values))
        w = u + d
        for alpha in (1.0 / n, 2.0 / n):
            ru = robinson_approx(u, alpha, mode="exact").values
            rw = robinson_approx(w, alpha, mode="exact").values
            rd = robinson_approx(d, alpha, mode="exact").values
            assert np.all(rw - ru >= -AGREE_TOL)
            assert np.all(rw - ru <= rd + AGREE_TOL)


def test_sup_norm_bound():
    rng = np.random.Generator(np.random.Philox(109))
    for _ in range(12):
        n = int(rng.integers(3, 8))
        w = sym(rng, n, -2, 2)
        alpha = float(rng.uniform(0.1, 0.5))
        r = robinson_approx(w, alpha, mode="exact")
        peak = float(np.abs(r.values).max())
        for p in (2.0, 6.0, np.inf):
            scale = 1.0 if np.isinf(p) else alpha ** (-2.0 / p)
            assert peak <= scale * lp_norm(w, p) + AGREE_TOL


def test_cut_norm_lipschitz_weakened():
    rng = np.random.Generator(np.random.Philox(110))
    for _ in range(10):
        n = int(rng.integers(3, 8))
        w, u = sym(rng, n, 0, 2), sym(rng, n, 0, 2)
        alpha = float(rng.uniform(0.15, 0.5))
        rw = robinson_approx(w, alpha, mode="exact").values
        ru = robinson_approx(u, alpha, mode="exact").values
        gap = float(np.abs(rw - ru).max())
        assert gap <= cut_norm_exact(w - u).value / (alpha * alpha) + AGREE_TOL


def test_heuristic_approximation_never_exceeds_exact():
    rng = np.random.Generator(np.random.Philox(111))
    for _ in range(10):
        n = int(rng.integers(3, 8))
        w = sym(rng, n, -1, 2)
        alpha = float(rng.uniform(0.1, 0.4))
        ex = robinson_approx(w, alpha, mode="exact").values
        he = robinson_approx(w, alpha, mode="heuristic").values
        assert np.all(he <= ex + LOWER_TOL)


# ---------------------------------------------------------------------------
# closed-form cross-check for Robinson inputs

def test_closed_form_matches_plain_window_average():
    w = toeplitz_decay(6, seed=9)
    alpha = 2.0 / 6.0
    r = closed_form_robinson_ae(w, alpha)
    g = r.grid_n
    for i in range(g):
        for j in range(i, g):
            x, y = i / g, (j + 1) / g
            if x < alpha or 1.0 - y < alpha:
                assert r.values[i, j] == 0.0
            else:
                want = oracle_window_average(w.values, x - alpha, x, y, y + alpha)
                assert r.values[i, j] == pytest.approx(want, abs=1e-12)
            assert r.values[j, i] == r.values[i, j]


def test_closed_form_agrees_with_the_envelope_pipeline():
    for seed in (1, 2, 3):
        w = toeplitz_decay(8, seed=seed)
        for alpha in (1.0 / 8.0, 2.0 / 8.0):
            a = robinson_approx(w, alpha, mode="exact").values
            b = closed_form_robinson_ae(w, alpha).values
            assert np.max(np.abs(a - b)) <= AGREE_TOL
    # n = 160, alpha = 0.4: cells at 1 - y = alpha have room (see
    # test_ul_sup_decides_room_on_the_coordinates)
    w = smooth_exp(160)
    a = robinson_approx(w, 0.4).values
    b = closed_form_robinson_ae(w, 0.4).values
    assert np.max(np.abs(a - b)) <= AGREE_TOL


def test_closed_form_rejects_non_robinson_input():
    bad = StepGraphon([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        closed_form_robinson_ae(bad, 0.25)
    with pytest.raises(ValueError):
        closed_form_robinson_ae(toeplitz_decay(4, seed=1), 0.0)


def test_robinson_tolerance_is_relative_to_the_sup_norm():
    # one dipped diagonal cell violates Robinson at every scale
    dipped = np.array(toeplitz_decay(10, seed=4).values)
    dipped[4, 4] -= 0.5
    for c in (1.0, 1e-12):
        with pytest.raises(ValueError, match="closed form needs a Robinson input"):
            closed_form_robinson_ae(StepGraphon(c * dipped), 0.2)
    # a Robinson kernel is one at every scale, and so are both approximations
    base = toeplitz_decay(12, seed=3).values
    for c in (1e-12, 1e9):
        w = StepGraphon(c * base)
        closed = closed_form_robinson_ae(w, 0.2)
        assert closed.robinson_validated
        for mode in ("exact", "heuristic"):
            r = robinson_approx(w, 0.2, mode=mode)
            assert r.robinson_validated
            assert np.allclose(r.values, closed.values, rtol=0, atol=AGREE_TOL * c)
