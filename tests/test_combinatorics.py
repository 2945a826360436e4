"""Interval splitting with a small-integral remainder, and density-preserving
shrinking of product sets.  The split oracle is a post-hoc condition checker;
the shrink oracle is exhaustive subset enumeration."""

import itertools
import math

import numpy as np
import pytest

from robinson_lab import combinatorics
from robinson_lab import (
    CellSet,
    IntervalSet,
    SplitResult,
    StepGraphon,
    interval_set_integral,
    pigeonhole_shrink,
    split_with_small_remainder,
)

MEASURE_TOL = 1e-12
INTEGRAL_TOL = 1e-9


# ---------------------------------------------------------------------------
# interval sets

def test_interval_set_cleaning_and_measure():
    s = IntervalSet(((0.2, 0.5), (0.0, 0.3), (0.7, 0.7), (0.9, 1.0)))
    assert s.intervals == ((0.0, 0.5), (0.9, 1.0))     # merged, degenerate dropped
    assert s.measure == pytest.approx(0.6, abs=MEASURE_TOL)
    assert s.bounds() == (0.0, 1.0)
    assert s.min_point() == 0.0 and s.max_point() == 1.0
    with pytest.raises(ValueError):
        IntervalSet(((0.5, 0.2),))
    with pytest.raises(ValueError):
        IntervalSet(((-0.1, 0.5),))
    with pytest.raises(ValueError):
        IntervalSet(()).bounds()


def test_interval_set_integral_hand_values():
    u = np.array([1.0, -1.0])
    assert interval_set_integral(u, IntervalSet(((0.0, 0.5),))) == pytest.approx(0.5)
    assert interval_set_integral(u, IntervalSet(((0.25, 0.75),))) == pytest.approx(0.0)
    assert interval_set_integral(u, IntervalSet(((0.1, 0.2),))) == pytest.approx(0.1)
    u4 = np.array([1.0, 2.0, 3.0, 4.0])
    assert interval_set_integral(u4, IntervalSet(((0.0, 1.0),))) == pytest.approx(2.5)
    assert interval_set_integral(
        u4, IntervalSet(((0.0, 0.25), (0.5, 0.75)))) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# split with small remainder: post-hoc checker = the oracle

def check_split(res: SplitResult, u, p: IntervalSet, beta: float):
    n = len(res.parts)
    assert n == math.ceil(p.measure / beta - 1e-12)
    assert res.remainder is res.parts[-1]
    assert res.remainder_index == n - 1

    # (ii) all but the remainder have measure beta and come in order
    for part in res.parts[:-1]:
        assert abs(part.measure - beta) <= MEASURE_TOL
    for a, b in zip(res.parts[:-2], res.parts[1:-1]):
        assert a.max_point() <= b.min_point() + 1e-9
    delta = p.measure - beta * (n - 1)
    assert abs(res.remainder.measure - delta) <= 1e-9

    # (i) the parts tile P: measures add up, pieces stay inside P, no overlap
    assert abs(sum(q.measure for q in res.parts) - p.measure) <= 1e-9
    pieces = sorted(iv for q in res.parts for iv in q.intervals)
    for lo, hi in pieces:
        assert any(plo - 1e-9 <= lo and hi <= phi + 1e-9 for plo, phi in p.intervals)
    for (_, hi), (lo, _) in zip(pieces[:-1], pieces[1:]):
        assert lo >= hi - 1e-9

    # (iii) the remainder integral is small
    total = interval_set_integral(u, p)
    assert abs(res.target_bound - abs(total) / n) <= 1e-12
    assert abs(res.remainder_integral) <= abs(total) / n + INTEGRAL_TOL
    assert abs(interval_set_integral(u, res.remainder) - res.remainder_integral) <= 1e-12


def test_split_uniform_mass_examples():
    u = np.ones(1)
    p = IntervalSet(((0.0, 1.0),))

    res = split_with_small_remainder(u, p, 0.3)
    check_split(res, u, p, 0.3)
    want = [(0.0, 0.3), (0.3, 0.6), (0.6, 0.9), (0.9, 1.0)]
    for part, (lo, hi) in zip(res.parts, want):
        assert len(part.intervals) == 1
        assert part.intervals[0] == pytest.approx((lo, hi), abs=1e-9)
    assert res.remainder_integral == pytest.approx(0.1, abs=1e-9)
    assert res.target_bound == pytest.approx(0.25, abs=1e-12)

    even = split_with_small_remainder(u, p, 0.25)
    check_split(even, u, p, 0.25)
    for part in even.parts:
        assert abs(part.measure - 0.25) <= MEASURE_TOL
        assert interval_set_integral(u, part) == pytest.approx(0.25, abs=1e-9)


def test_split_sign_changing_step():
    u = np.array([1.0] * 5 + [-1.0] * 4 + [1.0])
    p = IntervalSet(((0.0, 1.0),))
    res = split_with_small_remainder(u, p, 0.4)
    check_split(res, u, p, 0.4)


def test_split_on_a_union_of_intervals():
    u = np.array([2.0, -1.0, 0.5, 3.0])
    p = IntervalSet(((0.05, 0.4), (0.55, 0.95)))
    res = split_with_small_remainder(u, p, 0.3)
    check_split(res, u, p, 0.3)


def test_split_random_instances():
    rng = np.random.Generator(np.random.Philox(401))
    done = 0
    while done < 200:
        q = int(rng.integers(1, 33))
        u = rng.uniform(-2, 2, q)
        cuts = np.sort(rng.uniform(0, 1, 2 * int(rng.integers(1, 4))))
        ivs = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if b - a > 0.02]
        if not ivs:
            continue
        p = IntervalSet(tuple(ivs))
        if abs(interval_set_integral(u, p)) < 1e-3:
            continue
        beta = float(rng.uniform(0.15, 0.8)) * p.measure
        res = split_with_small_remainder(u, p, beta)
        check_split(res, u, p, beta)
        done += 1


def test_split_with_a_wrapped_remainder(monkeypatch):
    # Levy's universal chord theorem: a window of measure delta need not
    # exist when delta does not divide |P|.  u is F' in cell averages, with
    # F(x) = sin^2(pi x / delta) - x sin^2(pi / delta) + 0.05 x; every
    # non-wrapping window has integral F(s + delta) - F(s) = -0.38 against a
    # bound of 0.025, so only a wrapped window can meet it
    first_window = combinatorics._first_window
    starts = []

    def spy(comp, delta, bound, wrap):
        start = first_window(comp, delta, bound, wrap)
        starts.append((wrap, start))
        return start

    monkeypatch.setattr(combinatorics, "_first_window", spy)
    q, delta = 400, 0.4
    x = np.arange(q + 1) / q
    u = q * np.diff(np.sin(np.pi * x / delta) ** 2
                    - x * np.sin(np.pi / delta) ** 2 + 0.05 * x)
    p = IntervalSet(((0.0, 1.0),))
    res = split_with_small_remainder(u, p, 0.6)
    assert [wrap for wrap, _ in starts] == [False, True]
    assert starts[0][1] is None and starts[1][1] == pytest.approx(0.94463, abs=1e-5)
    check_split(res, u, p, 0.6)
    assert res.target_bound == pytest.approx(0.025, abs=1e-12)
    assert abs(res.remainder_integral) <= res.target_bound
    assert len(res.remainder.intervals) == 2           # [s, 1] and [0, s + delta - 1]
    assert res.remainder.intervals[1][1] == 1.0
    assert len(res.parts[0].intervals) == 1             # the rest, unwrapped
    assert res.parts[0].intervals[0] == pytest.approx(
        (res.remainder.intervals[0][1], res.remainder.intervals[1][0]), abs=1e-12)


class ReferenceCompressed:
    """The per-cut loop form of combinatorics._Compressed."""

    def __init__(self, u, p: IntervalSet):
        u = np.asarray(u, dtype=np.float64)
        q = len(u)
        seg_real = []      # (real_lo, real_hi, value)
        for lo, hi in p.intervals:
            cuts = [lo]
            first = int(math.floor(lo * q)) + 1
            while first / q < hi - 1e-12:
                if first / q > lo + 1e-12:
                    cuts.append(first / q)
                first += 1
            cuts.append(hi)
            for a, b in zip(cuts[:-1], cuts[1:]):
                if b - a > 1e-12:
                    seg_real.append((a, b, u[min(int(math.floor((a + b) / 2 * q)), q - 1)]))
        self.real_lo = np.array([s[0] for s in seg_real])
        self.real_hi = np.array([s[1] for s in seg_real])
        self.val = np.array([s[2] for s in seg_real])
        lengths = self.real_hi - self.real_lo
        self.comp_edges = np.concatenate([[0.0], np.cumsum(lengths)])
        self.h_pref = np.concatenate([[0.0], np.cumsum(lengths * self.val)])
        self.length = float(self.comp_edges[-1])

    def h(self, s):
        s = min(max(float(s), 0.0), self.length)
        i = int(np.searchsorted(self.comp_edges, s, side="right")) - 1
        i = min(max(i, 0), len(self.val) - 1)
        return float(self.h_pref[i] + (s - self.comp_edges[i]) * self.val[i])

    def to_real(self, c0, c1) -> IntervalSet:
        pieces = []
        for i in range(len(self.val)):
            lo = max(c0, self.comp_edges[i])
            hi = min(c1, self.comp_edges[i + 1])
            if hi - lo > 1e-12:
                base = self.comp_edges[i]
                pieces.append((self.real_lo[i] + (lo - base),
                               self.real_lo[i] + (hi - lo) + (lo - base)))
        return IntervalSet(tuple(pieces))


def reference_first_window(comp, delta, bound, wrap):
    """The per-piece loop form of combinatorics._first_window."""
    slack = 1e-12 * float(np.abs(np.diff(comp.h_pref)).sum())
    ln = comp.length
    edges = comp.comp_edges
    if wrap:
        lo_s, hi_s = ln - delta, ln
        cands = np.concatenate([edges, edges + (ln - delta)])

        def val(s):
            return (comp.h(ln) - comp.h(s)) + comp.h(s - (ln - delta))
    else:
        lo_s, hi_s = 0.0, ln - delta
        cands = np.concatenate([edges, edges - delta])

        def val(s):
            return comp.h(s + delta) - comp.h(s)

    grid = np.unique(np.clip(np.concatenate([cands, [lo_s, hi_s]]), lo_s, hi_s))
    for s0, s1 in zip(grid[-2::-1], grid[::-1]):
        i0, i1 = val(s0), val(s1)
        if abs(i1) <= bound + slack:
            return float(s1)
        hits = []
        for target in (bound, -bound):
            if (i0 - target) * (i1 - target) < 0:
                hits.append(s0 + (target - i0) * (s1 - s0) / (i1 - i0))
        if hits:
            return float(max(hits))
    if grid.size and abs(val(grid[0])) <= bound + slack:
        return float(grid[0])
    return None


def _split_inputs():
    """Random, tied and rounded step functions on unions of one to three
    intervals, with free and cell-aligned ends, and the wrapped example."""
    rng = np.random.Generator(np.random.Philox(409))
    q, delta = 400, 0.4
    x = np.arange(q + 1) / q
    yield (q * np.diff(np.sin(np.pi * x / delta) ** 2 - x * np.sin(np.pi / delta) ** 2
                       + 0.05 * x), IntervalSet(((0.0, 1.0),)), 0.6)
    done = 0
    while done < 300:
        q = int(rng.integers(1, 41))
        kind = done % 3
        if kind == 0:
            u = rng.uniform(-2, 2, q)
        elif kind == 1:
            u = rng.integers(-1, 3, q).astype(float)
        else:
            u = np.round(rng.uniform(-1, 2, q), 1)
        cuts = np.sort(rng.uniform(0, 1, 2 * int(rng.integers(1, 4))))
        if done % 2:
            cuts = np.unique(np.round(cuts * q)) / q
        ivs = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if b - a > 0.02]
        if not ivs:
            continue
        p = IntervalSet(tuple(ivs))
        if abs(interval_set_integral(u, p)) < 1e-3:
            continue
        yield u, p, float(rng.uniform(0.1, 0.9)) * p.measure
        done += 1


def test_split_matches_the_loop_reference(monkeypatch):
    def outcome(u, p, beta):
        try:
            return repr(split_with_small_remainder(u, p, beta))
        except (ValueError, ArithmeticError) as exc:
            return repr(exc)

    for u, p, beta in _split_inputs():
        got = outcome(u, p, beta)
        comp, ref = combinatorics._Compressed(u, p), ReferenceCompressed(u, p)
        for name in ("real_lo", "real_hi", "val", "comp_edges", "h_pref"):
            assert np.array_equal(getattr(comp, name), getattr(ref, name))
        probes = np.concatenate([comp.comp_edges, np.linspace(-0.1, comp.length + 0.1, 9)])
        assert comp.h(probes).tolist() == [ref.h(t) for t in probes]
        with monkeypatch.context() as patch:
            patch.setattr(combinatorics, "_Compressed", ReferenceCompressed)
            patch.setattr(combinatorics, "_first_window", reference_first_window)
            assert got == outcome(u, p, beta)


def test_split_tolerates_rounding_at_large_scales():
    # every window of 1000 * ones over [0, 1] with beta = 1/3 has the integral
    # 1000 delta, which rounds just above the bound 1000 / 3; the slack, which
    # scales with the mass of u, accepts the even chop
    u = 1000.0 * np.ones(1)
    p = IntervalSet(((0.0, 1.0),))
    res = split_with_small_remainder(u, p, 1 / 3)
    check_split(res, u, p, 1 / 3)
    want = [(0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)]
    for part, (lo, hi) in zip(res.parts, want):
        assert len(part.intervals) == 1
        assert part.intervals[0] == pytest.approx((lo, hi), abs=1e-12)
    assert res.remainder_integral > res.target_bound          # by rounding only
    assert res.remainder_integral <= res.target_bound * (1 + 1e-15)


def test_split_is_homogeneous_in_the_scale_of_u():
    # scaling u scales every window integral and the bound alike, so the
    # parts stay put; a slack with an absolute floor accepted every window
    # at 1e-15, and the latest one often lay above the bound
    rng = np.random.Generator(np.random.Philox(412))
    done = 0
    while done < 100:
        q = int(rng.integers(1, 41))
        u = rng.uniform(-2, 2, q)
        cuts = np.sort(rng.uniform(0, 1, 2 * int(rng.integers(1, 4))))
        ivs = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if b - a > 0.02]
        if not ivs:
            continue
        p = IntervalSet(tuple(ivs))
        if abs(interval_set_integral(u, p)) < 1e-3:
            continue
        beta = float(rng.uniform(0.1, 0.9)) * p.measure
        base = split_with_small_remainder(u, p, beta)
        ends = [iv for part in base.parts for iv in part.intervals]
        for scale in (1e-15, 1e6):
            res = split_with_small_remainder(scale * u, p, beta)
            assert abs(res.remainder_integral) <= res.target_bound * (1 + 1e-9)
            got = [iv for part in res.parts for iv in part.intervals]
            assert len(got) == len(ends)
            assert np.max(np.abs(np.subtract(got, ends))) <= 1e-15
        done += 1


def test_split_determinism():
    u = np.array([1.0, -0.5, 2.0])
    p = IntervalSet(((0.1, 0.9),))
    a = split_with_small_remainder(u, p, 0.22)
    b = split_with_small_remainder(u, p, 0.22)
    assert a.parts == b.parts
    assert a.remainder_integral == b.remainder_integral


def test_split_validation():
    u = np.ones(2)
    p = IntervalSet(((0.0, 0.8),))
    with pytest.raises(ValueError):
        split_with_small_remainder(u, p, 0.0)
    with pytest.raises(ValueError):
        split_with_small_remainder(u, p, 0.8)       # beta must stay below |P|
    with pytest.raises(ValueError):
        split_with_small_remainder(u, p, 1.5)
    with pytest.raises(ValueError):
        split_with_small_remainder(u, IntervalSet(()), 0.1)
    with pytest.raises(ValueError):
        split_with_small_remainder(np.zeros(3), p, 0.3)   # vanishing integral
    balanced = np.array([1.0, -1.0])                      # total is exactly zero
    with pytest.raises(ValueError):
        split_with_small_remainder(balanced, IntervalSet(((0.0, 1.0),)), 0.3)


def test_split_into_one_part_when_beta_is_all_but_a_rounding_of_p():
    u = np.array([1.0, -0.5, 0.25, 0.75])
    p = IntervalSet(((0.0, 0.4), (0.5, 0.95)))
    res = split_with_small_remainder(u, p, p.measure * (1 - 1e-13))
    total = interval_set_integral(u, p)
    assert res.parts == (p,) and res.remainder == p
    assert res.remainder_integral == total and res.target_bound == abs(total)


# ---------------------------------------------------------------------------
# pigeonhole shrink: exhaustive enumeration as the oracle

def oracle_best_density(f: StepGraphon, rows, cols, l1, l2):
    q = f.n
    b = f.values[np.ix_(rows, cols)] / (q * q)
    best = -np.inf
    for ci in itertools.combinations(range(len(rows)), l1):
        for cj in itertools.combinations(range(len(cols)), l2):
            best = max(best, b[np.ix_(ci, cj)].sum())
    return best / ((l1 / q) * (l2 / q))


def density_of(f: StepGraphon, t: CellSet, tp: CellSet):
    box = f.values[np.ix_(t.as_array(), tp.as_array())].sum() / (f.n * f.n)
    return box / (t.measure * tp.measure)


def test_shrink_constant_density():
    f = StepGraphon(np.ones((4, 4)))
    s = CellSet(4, (0, 1, 2, 3))
    t, tp = pigeonhole_shrink(f, s, s, 0.5)
    assert len(t.indices) == len(tp.indices) == 2
    assert density_of(f, t, tp) == pytest.approx(1.0, abs=1e-12)


def test_shrink_ties_go_to_the_lower_cells():
    f = StepGraphon(np.ones((6, 6)))
    s = CellSet(6, tuple(range(6)))
    t, tp = pigeonhole_shrink(f, s, s, 0.5)
    assert t.indices == (0, 1, 2) and tp.indices == (0, 1, 2)


def test_shrink_concentrates_on_the_hot_block():
    v = np.zeros((4, 4))
    v[:2, :2] = 4.0
    f = StepGraphon(v)
    s = CellSet(4, (0, 1, 2, 3))
    t, tp = pigeonhole_shrink(f, s, s, 0.5)
    assert t.indices == (0, 1) and tp.indices == (0, 1)
    assert density_of(f, t, tp) >= 1.0 - 1e-12            # starting mean density


def test_shrink_drop_one_chunk():
    rng = np.random.Generator(np.random.Philox(402))
    v = rng.uniform(0.2, 2.0, (4, 4))
    f = StepGraphon(0.5 * (v + v.T))
    s = CellSet(4, (0, 1, 2, 3))
    t, tp = pigeonhole_shrink(f, s, s, 0.75)
    assert len(t.indices) == len(tp.indices) == 3
    start = density_of(f, s, s)
    got = density_of(f, t, tp)
    assert got >= start - 1e-9
    assert got <= oracle_best_density(f, s.indices, s.indices, 3, 3) + 1e-9


def test_shrink_random_instances_vs_exhaustive():
    rng = np.random.Generator(np.random.Philox(403))
    for _ in range(100):
        q = 8
        k = int(rng.integers(2, 9))
        l = int(rng.integers(1, k))
        idx_r = tuple(sorted(rng.choice(q, size=k, replace=False).tolist()))
        idx_c = tuple(sorted(rng.choice(q, size=k, replace=False).tolist()))
        m = rng.uniform(0.0, 2.0, (q, q))
        f = StepGraphon(0.5 * (m + m.T))
        rows, cols = CellSet(q, idx_r), CellSet(q, idx_c)
        t, tp = pigeonhole_shrink(f, rows, cols, l / k)
        assert set(t.indices) <= set(idx_r) and set(tp.indices) <= set(idx_c)
        assert len(t.indices) == len(tp.indices) == l
        got = density_of(f, t, tp)
        assert got >= density_of(f, rows, cols) - 1e-9
        assert got <= oracle_best_density(f, idx_r, idx_c, l, l) + 1e-9


def test_shrink_is_homogeneous_in_the_scale_of_f():
    # the rounds stop when the box sum stops rising and the density check is
    # relative, so scaling f changes neither the sets nor the verdict; an
    # absolute 1e-15 stop cut the rounds short at 1e-20, and an absolute 1e-9
    # density check failed constant kernels at 1e9 on rounding alone
    rng = np.random.Generator(np.random.Philox(411))
    for case in range(200):
        q = int(rng.integers(2, 13))
        k = int(rng.integers(1, q + 1))
        l = int(rng.integers(1, k + 1))
        rows = CellSet(q, tuple(sorted(rng.choice(q, k, replace=False).tolist())))
        cols = CellSet(q, tuple(sorted(rng.choice(q, k, replace=False).tolist())))
        if case % 2:
            v = np.full((q, q), float(rng.uniform(0.1, 3.0)))
        else:
            m = rng.uniform(0.0, 2.0, (q, q))
            v = 0.5 * (m + m.T)
        base = pigeonhole_shrink(StepGraphon(v), rows, cols, l / k)
        for scale in (1e-20, 1e9, 1e12):
            assert pigeonhole_shrink(StepGraphon(scale * v), rows, cols, l / k) == base


def test_shrink_determinism():
    rng = np.random.Generator(np.random.Philox(404))
    m = rng.uniform(0, 1, (6, 6))
    f = StepGraphon(0.5 * (m + m.T))
    s = CellSet(6, (0, 2, 3, 5))
    a = pigeonhole_shrink(f, s, s, 0.5)
    b = pigeonhole_shrink(f, s, s, 0.5)
    assert a == b


def test_shrink_validation():
    f = StepGraphon(np.ones((4, 4)))
    s4 = CellSet(4, (0, 1, 2, 3))
    s2 = CellSet(4, (0, 1))
    with pytest.raises(ValueError):
        pigeonhole_shrink(f, s4, s2, 0.5)                 # unequal measures
    with pytest.raises(ValueError):
        pigeonhole_shrink(f, s4, s4, 0.3)                 # 0.3 * 4 cells isn't whole
    with pytest.raises(ValueError):
        pigeonhole_shrink(f, s4, s4, 0.05)                # rounds to zero cells
    with pytest.raises(ValueError):
        pigeonhole_shrink(f, s4, s4, 1.5)                 # more cells than the set has
    with pytest.raises(ValueError):
        pigeonhole_shrink(f, CellSet(5, (0, 1)), CellSet(5, (0, 1)), 0.5)
    neg = StepGraphon(-np.ones((4, 4)))
    with pytest.raises(ValueError):
        pigeonhole_shrink(neg, s4, s4, 0.5)               # nonpositive integral
    for empty in ((CellSet(4, ()), CellSet(4, ())), (CellSet(4, ()), s4), (s4, CellSet(4, ()))):
        with pytest.raises(ValueError, match="empty cell set"):
            pigeonhole_shrink(f, *empty, 0.5)
