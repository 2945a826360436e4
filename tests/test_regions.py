"""Level-set region maps, their partition audit, grey squares, boundary curves."""

import dataclasses
import hashlib

import numpy as np
import pytest

from robinson_lab import (
    BoundaryCurve,
    StepGraphon,
    boundary_curve,
    cell_crosses,
    compute_regions,
    largest_grey_square,
    quadratic_sum,
    toeplitz_decay,
    ul_sup,
    verify_partition,
)
from robinson_lab.approx import GUARD, _box_averages
from robinson_lab.regions import _anchored_window_matrix
from window_oracle import lr_inf

LABEL_HASH_Q16 = "14035e4028fe03931dbda34acb00fd1257d58b1aeeaab6ee0f65605f85d17a3c"


def random_nonneg(rng, n, hi=1.0):
    m = rng.uniform(0, hi, (n, n))
    return StepGraphon(0.5 * (m + m.T))


# ---------------------------------------------------------------------------
# two fully hand-checkable instances

def test_flat_one_instance():
    rm = compute_regions(StepGraphon([[1.0]]), m=2, alpha=0.25, raster=128)
    assert rm.level_max == 1 and rm.total_levels == 2
    r = 128
    ix, iy = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    tri = ix <= iy
    # windows exist only for x >= 1/4 (pixel 32 on) and y <= 3/4 (pixel 95);
    # the constant value 1 clears threshold 1/2 everywhere a window exists
    expect_high = tri & (((ix >= 32) & (iy <= 95)) | (ix == iy))
    assert np.array_equal(rm.high_mask(1), expect_high)
    assert not rm.low_mask(1).any()                       # value 1 > 1/2 everywhere
    assert np.array_equal(rm.low_mask(2), tri)            # top-level convention
    assert not rm.band_mask(0).any()
    assert np.array_equal(rm.band_mask(1), expect_high)
    assert np.array_equal(rm.grey_mask(1), tri & ~expect_high)
    assert verify_partition(rm)
    # the infeasibility strip is 1/4 wide, so the best grey square is exactly
    # 32 pixels; the guarantee alpha + 2/raster leaves room beyond that
    assert largest_grey_square(rm, 1) == 32 / 128
    assert largest_grey_square(rm, 1) <= 0.25 + 2 / 128


def test_zero_graphon_instance():
    rm = compute_regions(StepGraphon(np.zeros((2, 2))), m=2, alpha=0.1, raster=64)
    assert rm.total_levels == 2                            # value ceiling forced to 1
    lab = rm.label_array()
    diag = lab[np.arange(64), np.arange(64)]
    assert set(diag.tolist()) == {1}                       # diagonal sits in the top band
    # away from the diagonal everything is flat zero: band 0
    assert lab[0, 63] == 0
    assert lab[10, 40] == 0
    # near-diagonal pixels (no room for a lower-right window) go grey at level 1
    grey = rm.grey_mask(1)
    assert grey.any()
    off = np.abs(np.arange(64)[:, None] - np.arange(64)[None, :])
    assert np.all(off[grey] <= np.ceil(2 * 0.1 * 64) + 1)  # grey hugs the diagonal
    assert verify_partition(rm)
    assert largest_grey_square(rm, 1) <= 0.1 + 2 / 64


# ---------------------------------------------------------------------------
# partition audit

def test_partition_holds_and_corruption_is_caught():
    rng = np.random.Generator(np.random.Philox(301))
    rm = None
    for _ in range(8):
        n = int(rng.integers(2, 9))
        w = random_nonneg(rng, n, hi=float(rng.uniform(0.5, 3.0)))
        rm = compute_regions(w, m=int(rng.integers(1, 5)),
                             alpha=float(rng.uniform(0.06, 0.3)), raster=64)
        assert verify_partition(rm)
        # zones must nest as the threshold rises
        for k in range(rm.total_levels):
            assert not np.any(rm.high_mask(k + 1) & ~rm.high_mask(k))
            assert not np.any(rm.low_mask(k) & ~rm.low_mask(k + 1))
    # force k_low == k_high: pixels then carry two band labels
    broken = dataclasses.replace(rm, k_low=np.maximum(rm.k_high, 1))
    assert not verify_partition(broken)

    # one corrupted pixel breaks a convention at k = 0 or at the top level
    def corrupt(field, pixel, value):
        levels = getattr(rm, field).copy()
        levels[pixel] = value
        return dataclasses.replace(rm, **{field: levels})

    total = rm.total_levels
    assert not verify_partition(corrupt("k_high", (0, 1), -1))         # high zone at k = 0
    assert not verify_partition(corrupt("k_high", (3, 3), total - 1))  # diagonal high at the top
    assert not verify_partition(corrupt("k_low", (0, 1), 0))           # low zone at k = 0
    assert not verify_partition(corrupt("k_low", (0, 1), total + 1))   # low zone at the top


def reference_verify_partition(rm):
    """The audit with its in-loop zone checks, which the masks' construction
    makes unfailable."""
    tri = rm._triangle()
    total = rm.total_levels
    band_count = np.zeros(rm.raster * rm.raster, dtype=np.int64).reshape(rm.raster, -1)
    grey_any = np.zeros_like(tri)
    prev_high, prev_low = None, None
    for k in range(0, total + 1):
        high = rm.high_mask(k)
        low = rm.low_mask(k)
        if np.any(high & ~tri) or np.any(low & ~tri):
            return False
        if prev_high is not None and np.any(high & ~prev_high):
            return False          # high zones must shrink as k grows
        if prev_low is not None and np.any(prev_low & ~low):
            return False          # low zones must grow
        prev_high, prev_low = high, low
        if k <= total - 1:
            band_count += rm.band_mask(k)
        if 1 <= k <= total - 1:
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


def test_partition_audit_matches_the_reference_on_corrupted_maps():
    rng = np.random.Generator(np.random.Philox(303))
    maps = []
    for _ in range(6):
        w = random_nonneg(rng, int(rng.integers(2, 9)), hi=float(rng.uniform(0.5, 3.0)))
        maps.append(compute_regions(w, m=int(rng.integers(1, 5)),
                                    alpha=float(rng.uniform(0.06, 0.3)), raster=16))
    verdicts = []
    for trial in range(660):
        rm = maps[trial % len(maps)]
        total = rm.total_levels
        fields = {"k_high": rm.k_high.copy(), "k_low": rm.k_low.copy()}
        # corrupt 1 to 8 pixels of one or both level maps, anywhere on the
        # raster, to levels from below 0 to above the top
        for _ in range(int(rng.integers(1, 9))):
            levels = fields[("k_high", "k_low")[int(rng.integers(0, 2))]]
            levels[tuple(rng.integers(0, rm.raster, 2))] = int(rng.integers(-1, total + 2))
        broken = dataclasses.replace(rm, **fields)
        verdict = verify_partition(broken)
        assert verdict == reference_verify_partition(broken)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)   # both verdicts occur


def test_grey_square_guarantee():
    rng = np.random.Generator(np.random.Philox(302))
    for _ in range(20):
        n = int(rng.integers(2, 11))
        w = random_nonneg(rng, n, hi=2.0)
        alpha = float(rng.uniform(0.05, 0.25))
        rm = compute_regions(w, m=int(rng.integers(1, 5)), alpha=alpha, raster=128)
        for k in range(1, rm.total_levels):
            assert largest_grey_square(rm, k) <= alpha + 2 / 128


def test_grey_square_empty_mask_gives_zero():
    rm = compute_regions(StepGraphon([[1.0]]), m=1, alpha=0.2, raster=32)
    # total levels = 1: no intermediate threshold, so fabricate a two-level
    # map whose grey set is empty
    rm2 = compute_regions(StepGraphon([[1.0]]), m=2, alpha=0.2, raster=32)
    empty = dataclasses.replace(rm2, k_low=rm2.k_high + 1)
    assert not empty.grey_mask(1).any()
    assert largest_grey_square(empty, 1) == 0.0
    with pytest.raises(ValueError):
        rm.grey_mask(1)     # no valid grey level on a single-level map


# ---------------------------------------------------------------------------
# band labels vs. the exact window statistics

def test_band_membership_transfers_to_exact_windows():
    rng = np.random.Generator(np.random.Philox(303))
    w = random_nonneg(rng, 6, hi=1.0)
    m, alpha, raster = 2, 0.25, 32
    rm = compute_regions(w, m=m, alpha=alpha, raster=raster)
    lab = rm.label_array()
    centers = (np.arange(raster) + 0.5) / raster
    checked = 0
    for ix in range(0, raster, 3):
        for iy in range(ix, raster, 3):
            k = int(lab[ix, iy])
            if k < 0 or ix == iy:
                continue
            x, y = float(centers[ix]), float(centers[iy])
            if k >= 1:
                # a window average above k/m exists -> the true supremum agrees
                assert ul_sup(w, x, y, alpha, mode="exact") > k / m - 1e-9
            if k + 1 < rm.total_levels:
                assert lr_inf(w, x, y, alpha, mode="exact") <= (k + 1) / m + 1e-9
            checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# boundary curves

def test_boundary_curve_conventions():
    rng = np.random.Generator(np.random.Philox(304))
    w = random_nonneg(rng, 5, hi=1.5)
    rm = compute_regions(w, m=2, alpha=0.15, raster=64)
    top = boundary_curve(rm, "high", 0)
    assert np.all(top.zs == 1.0)                           # threshold-0 envelope
    bottom = boundary_curve(rm, "low", rm.total_levels)
    assert np.max(np.abs(bottom.zs - bottom.xs)) <= 1.0 / 64   # follows the diagonal
    for k in range(rm.total_levels + 1):
        for kind in ("high", "low"):
            c = boundary_curve(rm, kind, k)
            assert np.all(np.diff(c.xs) > 0)
            assert np.all(np.diff(c.zs) >= 0)              # monotone staircases
    with pytest.raises(ValueError):
        boundary_curve(rm, "sideways", 1)


def test_cell_crosses_examples():
    curve = BoundaryCurve(kind="high", level=1,
                          xs=np.array([0.125, 0.375, 0.625, 0.875]),
                          zs=np.array([0.25, 0.25, 0.75, 0.75]))
    assert not cell_crosses(curve, (0.0, 0.25, 0.5, 1.0))      # fully above
    assert not cell_crosses(curve, (0.0, 0.25, 0.0, 0.2))      # fully below
    assert cell_crosses(curve, (0.25, 0.75, 0.3, 0.6))         # straddles the rise
    assert cell_crosses(curve, (0.375, 0.625, 0.3, 0.7))       # straddles the jump
    assert not cell_crosses(curve, (0.2, 0.2, 0.1, 0.5))       # zero width
    assert not cell_crosses(curve, (0.3, 0.2, 0.1, 0.5))       # inverted


def test_each_curve_crosses_few_grid_cells():
    rng = np.random.Generator(np.random.Philox(305))
    for _ in range(4):
        n = int(rng.integers(2, 8))
        w = random_nonneg(rng, n, hi=2.0)
        rm = compute_regions(w, m=2, alpha=0.12, raster=64)
        for beta in (0.25, 0.125):
            cells_per_axis = int(round(1 / beta))
            bound = int(np.ceil(2 / beta))
            for k in range(rm.total_levels + 1):
                for kind in ("high", "low"):
                    curve = boundary_curve(rm, kind, k)
                    hit = 0
                    for a in range(cells_per_axis):
                        for b in range(cells_per_axis):
                            hit += cell_crosses(curve, (a * beta, (a + 1) * beta,
                                                        b * beta, (b + 1) * beta))
                    assert hit <= bound


# ---------------------------------------------------------------------------
# validation + regression pin

def test_compute_regions_validation():
    w = StepGraphon([[0.5]])
    with pytest.raises(ValueError):
        compute_regions(StepGraphon([[-0.1]]), m=2, alpha=0.2)
    with pytest.raises(ValueError):
        compute_regions(w, m=0, alpha=0.2)
    with pytest.raises(ValueError):
        compute_regions(w, m=2, alpha=0.5)
    with pytest.raises(ValueError):
        compute_regions(w, m=2, alpha=0.2, raster=4)
    for bad in (2.5, True, "2", float("nan")):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            compute_regions(w, m=bad, alpha=0.2)
    for bad in (64.9, True, "64", 8.5):
        with pytest.raises(ValueError, match="raster must be an integer >= 8"):
            compute_regions(w, m=2, alpha=0.2, raster=bad)
    assert compute_regions(w, m=2.0, alpha=0.2, raster=np.int64(16)).raster == 16


def test_compute_regions_rejects_widths_at_or_below_guard():
    for alpha in (1e-16, GUARD):
        with pytest.raises(ValueError, match="GUARD = 1e-15"):
            compute_regions(toeplitz_decay(8, seed=1), m=4, alpha=alpha)


def test_quadratic_region_map_regression():
    rm = compute_regions(quadratic_sum(16), m=4, alpha=0.1, raster=128)
    assert verify_partition(rm)
    lab = rm.label_array()
    assert set(lab[np.arange(128), np.arange(128)].tolist()) == {rm.total_levels - 1}
    assert hashlib.sha256(lab.tobytes()).hexdigest() == LABEL_HASH_Q16
    assert max(largest_grey_square(rm, k)
               for k in range(1, rm.total_levels)) == 0.1015625


def test_region_map_is_deterministic():
    w = toeplitz_decay(7, seed=5)
    a = compute_regions(w, m=3, alpha=0.11, raster=64)
    b = compute_regions(w, m=3, alpha=0.11, raster=64)
    assert np.array_equal(a.label_array(), b.label_array())
    assert np.array_equal(a.value_high, b.value_high)
    assert np.array_equal(a.value_low, b.value_low)


# ---------------------------------------------------------------------------
# loop references for the array code

def reference_labels(rm):
    """The per-level label loop."""
    r = rm.raster
    lab = np.full((r, r), -1, dtype=np.int64)
    tri = rm._triangle()
    labelled = np.zeros_like(tri)
    for k in range(rm.total_levels):
        band = rm.band_mask(k)
        lab[band] = k
        labelled |= band
    grey = tri & ~labelled
    lab[grey] = -(2 + rm.k_high[grey] + 1)
    return lab


def reference_curve(rm, kind, k):
    """The per-column boundary loops."""
    r = rm.raster
    zs = np.empty(r)
    if kind == "high":
        mask = rm.high_mask(k)
        for ix in range(r):
            hits = np.flatnonzero(mask[ix, :])
            zs[ix] = (hits[-1] + 1) / r if hits.size else ix / r
    else:
        mask = rm.low_mask(k)
        for ix in range(r):
            hits = np.flatnonzero(mask[ix, :])
            zs[ix] = hits[0] / r if hits.size else 1.0
    return np.maximum.accumulate(zs)


def reference_value_low(w, alpha, r):
    """Lower-right minima with the row-by-row dmin loop."""
    centers = (np.arange(r) + 0.5) / r
    xs, ys = np.meshgrid(centers, centers, indexing="ij")
    wmat = _anchored_window_matrix(w, alpha, r)
    valid = np.tril(np.ones((r + 1, r + 1), dtype=bool)).T
    wmask = np.where(valid, wmat, np.inf)
    wmask[~np.isfinite(wmat)] = np.inf
    dmin = np.full((r + 2, r + 1), np.inf)
    for ia in range(r, -1, -1):
        row = np.minimum(wmask[ia], dmin[ia + 1])
        dmin[ia] = np.minimum.accumulate(row)
    dmin = dmin[:r + 1]
    ia_min = np.ceil((centers + alpha) * r - 1e-9).astype(np.intp)
    ib_max = np.floor((centers - alpha) * r + 1e-9).astype(np.intp)
    ok = (ia_min >= 0) & (ia_min <= r)
    okb = (ib_max >= 0) & (ib_max <= r)
    v_low = np.full((r, r), np.inf)
    sel = ok[:, None] & okb[None, :]
    v_low[sel] = dmin[np.clip(ia_min, 0, r)[:, None].repeat(r, 1)[sel],
                      np.clip(ib_max, 0, r)[None, :].repeat(r, 0)[sel]]
    feas2 = (ys - xs) >= 2 * alpha - GUARD
    corner2 = np.where(feas2, _box_averages(w, alpha, centers, centers).T, np.inf)
    v_low = np.minimum(v_low, corner2)
    v_low = np.minimum.accumulate(v_low[::-1, :], axis=0)[::-1, :]
    return np.minimum.accumulate(v_low, axis=1)


def test_region_values_stay_in_the_kernels_range_at_narrow_widths():
    # box integrals from four prefix integrals each gave value_high up to 111
    # (n = 8, maximum 0.807) and +-222 (n = 24) at alpha = 1e-9
    for n, seed in ((8, 1), (24, 24)):
        w = toeplitz_decay(n, seed=seed)
        lo, hi = float(w.values.min()), float(w.values.max())
        rm = compute_regions(w, m=4, alpha=1e-9, raster=64)
        assert np.all(np.isfinite(rm.value_high))
        assert rm.value_high.max() <= hi + 1e-12 * hi
        assert rm.value_low.min() >= lo - 1e-12 * hi


def test_region_arrays_match_loop_references():
    rng = np.random.Generator(np.random.Philox(311))
    for trial in range(24):
        n = int(rng.integers(1, 12))
        w = random_nonneg(rng, n, hi=float(rng.uniform(0.5, 3.0)))
        if trial % 3 == 1:
            w = StepGraphon(np.zeros((n, n)))
        elif trial % 3 == 2:
            w = StepGraphon(np.round(2.0 * w.values) / 2.0)    # many ties
        alpha = float(rng.uniform(0.02, 0.45))
        raster = int(rng.integers(8, 101))
        rm = compute_regions(w, m=int(rng.integers(1, 6)), alpha=alpha, raster=raster)
        assert np.array_equal(rm.value_low, reference_value_low(w, alpha, raster))
        lab = rm.label_array()
        assert lab.dtype == np.int64 and np.array_equal(lab, reference_labels(rm))
        for k in range(rm.total_levels + 1):
            for kind in ("high", "low"):
                zs = boundary_curve(rm, kind, k).zs
                assert np.array_equal(zs, reference_curve(rm, kind, k))
