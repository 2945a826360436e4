"""Core container, file format, norms, stepping, cut-off, shape check."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from robinson_lab import (
    CellSet,
    RobinsonCheck,
    StepGraphon,
    cut_norm_exact,
    cutoff,
    is_robinson,
    load_graphon,
    lp_norm,
    monotone_envelope,
    plant_violation,
    refine,
    save_graphon,
    step_to,
    toeplitz_decay,
)
from robinson_lab import cli
from robinson_lab.core import MAX_REFINED_CELLS

RNG = np.random.Generator(np.random.Philox(20240901))


def random_symmetric(n, rng=RNG, lo=-1.0, hi=1.0):
    v = rng.uniform(lo, hi, (n, n))
    return StepGraphon(0.5 * (v + v.T))


def brute_force_robinson(v, tol):
    """O(n^3) reference: every ordered triple checked directly."""
    n = v.shape[0]
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if v[i, k] > v[i, j] + tol or v[i, k] > v[j, k] + tol:
                    return False, (i, j, k)
    return True, None


def robinson_scan_reference(w, tol):
    """The former ``is_robinson``: the running-minimum verdict, then a scan
    over (i, j) for the witness, in the difference form v[i,k] - v[i,j] > tol."""
    v, n = w.values, w.n
    upper = np.where(np.triu(np.ones((n, n), dtype=bool)), v, np.inf)
    row_runmin = np.minimum.accumulate(upper, axis=1)
    col_runmin = np.minimum.accumulate(upper[::-1, :], axis=0)[::-1, :]
    if not (np.any(upper > row_runmin + tol) or np.any(upper > col_runmin + tol)):
        return RobinsonCheck(True, None)
    for i in range(n):
        for j in range(i, n):
            bad_row = np.flatnonzero((v[i, j:] - v[i, j]) > tol)
            bad_col = np.flatnonzero((v[i, j:] - v[j, j:]) > tol)
            firsts = [int(b[0]) for b in (bad_row, bad_col) if b.size]
            if firsts:
                return RobinsonCheck(False, (i, j, j + min(firsts)))
    raise AssertionError("inconsistent Robinson check")


def robinson_families(rng, count):
    """Planted Toeplitz kernels, three-valued kernels with many ties,
    perturbed envelopes and random symmetric matrices, n from 1 to 29."""
    for trial in range(count):
        n = int(rng.integers(1, 30))
        kind = trial % 4
        if kind == 0:
            w = toeplitz_decay(n, seed=trial)
            if n >= 3:
                w, _ = plant_violation(w, float(rng.uniform(0.01, 0.5)), seed=trial)
            yield w
        elif kind == 1:
            v = rng.choice([0.0, 0.5, 1.0], (n, n))
            yield StepGraphon(np.triu(v) + np.triu(v, 1).T)
        elif kind == 2:
            e = monotone_envelope(np.triu(rng.uniform(0.0, 1.0, (n, n))))
            dent = rng.normal(0.0, 1e-3, (n, n)) * (rng.random((n, n)) < 0.05)
            yield StepGraphon(e + 0.5 * (dent + dent.T))
        else:
            yield random_symmetric(n, rng)


# ---------------------------------------------------------------------------
# container

def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        StepGraphon(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        StepGraphon(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        StepGraphon([[0.0, 1.0], [0.0, 0.0]])          # asymmetric
    with pytest.raises(ValueError):
        StepGraphon([[np.nan, 0.0], [0.0, 0.0]])


def test_constructor_symmetrises_within_tolerance():
    eps = 5e-13
    w = StepGraphon([[1.0, 2.0], [2.0 + eps, 1.0]])
    assert w.values[0, 1] == w.values[1, 0] == 2.0 + eps / 2
    assert not w.values.flags.writeable


def test_symmetry_tolerance_is_relative_to_the_largest_entry():
    # as asymmetric as a matrix can be, however small its scale
    with pytest.raises(ValueError, match="not symmetric"):
        StepGraphon(1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    # symmetric to rounding, however large its scale
    w = StepGraphon(1e6 * np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))
    assert w.values[0, 1] == w.values[1, 0]
    assert StepGraphon(np.zeros((3, 3))).values.sum() == 0.0


def test_arithmetic_and_resolution_guard():
    a = random_symmetric(4)
    b = random_symmetric(4)
    assert np.allclose((a + b).values, a.values + b.values)
    assert np.allclose((a - b).values, a.values - b.values)
    assert np.allclose((2.5 * a).values, 2.5 * a.values)
    with pytest.raises(ValueError):
        a + random_symmetric(5)


# ---------------------------------------------------------------------------
# file format

def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.Generator(np.random.Philox(7))
    v = rng.uniform(-1, 1, (6, 6)) * np.exp(rng.uniform(-30, 30, (6, 6)))
    w = StepGraphon(0.5 * (v + v.T))
    path = tmp_path / "w.mat"
    save_graphon(w, path)
    back = load_graphon(path)
    assert back.n == w.n
    assert np.array_equal(back.values, w.values)


def test_load_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.mat"
    path.write_text("# a comment\n2\n\n0 1  # trailing note\n1 0\n")
    w = load_graphon(path)
    assert np.array_equal(w.values, [[0.0, 1.0], [1.0, 0.0]])


def test_load_sized_form(tmp_path):
    path = tmp_path / "s.mat"
    path.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
    assert np.array_equal(load_graphon(path).values, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_load_rows_only_form(tmp_path):
    path = tmp_path / "r.mat"
    path.write_text("# rows only\n0 1 2\n1 0 1  # middle\n\n2 1 0\n")
    assert np.array_equal(load_graphon(path).values, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


@pytest.mark.parametrize("body, message", [
    ("0 1 2\n1 0\n2 1 0\n", "row 2 has 2 entries, expected 3 like row 1"),
    ("0 1 2\n1 0 1\n", "expected 3 rows of 3 entries, found 2 rows"),
    ("2\n0 1\n1 zero\n", "non-numeric matrix entry"),
], ids=["ragged", "nonsquare", "non-numeric"])
def test_load_rejects_ragged_or_nonsquare_rows(tmp_path, capsys, body, message):
    path = tmp_path / "bad.mat"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        load_graphon(path)
    assert cli.main(["lambda", "--in", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "",                          # no data
    "x\n0\n",                    # bad size token
    "2\n0 1\n1\n",               # wrong entry count
    "2\n0 1\n0.5 0\n",           # asymmetric beyond 1e-12
    "0\n",                       # nonpositive size
])
def test_load_rejects_malformed_files(tmp_path, body):
    path = tmp_path / "bad.mat"
    path.write_text(body)
    with pytest.raises(ValueError):
        load_graphon(path)


def test_cell_set_rejects_duplicate_indices():
    with pytest.raises(ValueError, match="duplicate cell indices"):
        CellSet(4, (1, 1))


# ---------------------------------------------------------------------------
# norms

def test_lp_norm_hand_values():
    w = StepGraphon([[2.0, 0.0], [0.0, 0.0]])
    assert lp_norm(w, 1) == pytest.approx(0.5, abs=1e-15)
    assert lp_norm(w, 2) == pytest.approx(1.0, abs=1e-15)
    assert lp_norm(w, np.inf) == 2.0
    with pytest.raises(ValueError):
        lp_norm(w, 0.5)
    # |values|^p overflows (10^600, 2^1e6) or underflows (1e-360): scaled by the max
    assert lp_norm(5.0 * w, 600) == pytest.approx(10.0 * 4.0 ** (-1.0 / 600), rel=1e-14)
    assert lp_norm(w, 1e6) == pytest.approx(2.0 * 4.0 ** -1e-6, rel=1e-14)
    assert lp_norm(1e-60 * w, 6) == pytest.approx(2e-60 * 4.0 ** (-1.0 / 6), rel=1e-14, abs=0.0)
    assert lp_norm(0.0 * w, 6) == 0.0


@seed(11)
@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10_000))
def test_norm_chain(n, s):
    rng = np.random.Generator(np.random.Philox(s))
    w = StepGraphon(0.5 * (lambda m: m + m.T)(rng.uniform(-2, 2, (n, n))))
    cut = cut_norm_exact(w).value
    l1, l2, l6, li = (lp_norm(w, p) for p in (1, 2, 6, np.inf))
    assert cut <= l1 + 1e-12
    assert l1 <= l2 + 1e-12 <= l6 + 2e-12 <= li + 3e-12


# ---------------------------------------------------------------------------
# refine / step_to

def test_refine_preserves_the_function():
    w = random_symmetric(5)
    r = refine(w, 3)
    assert r.n == 15
    assert np.array_equal(r.values, np.kron(w.values, np.ones((3, 3))))
    for p in (1, 2, np.inf):
        assert lp_norm(r, p) == pytest.approx(lp_norm(w, p), abs=1e-14)
    assert refine(w, 1) is w
    with pytest.raises(ValueError):
        refine(w, 0)
    with pytest.raises(ValueError, match="exceeds cap %d" % MAX_REFINED_CELLS):
        refine(w, MAX_REFINED_CELLS // 5 + 1)


def test_step_to_block_averages_and_validation():
    w = StepGraphon([[0.0, 1.0, 2.0, 3.0],
                     [1.0, 0.0, 1.0, 2.0],
                     [2.0, 1.0, 0.0, 1.0],
                     [3.0, 2.0, 1.0, 0.0]])
    s = step_to(w, [[0, 1], [2, 3]])
    assert s.n == 4
    assert np.allclose(s.values[:2, :2], 0.5)
    assert np.allclose(s.values[:2, 2:], 2.0)   # mean of {2, 3, 1, 2}
    # stepping twice with the same partition changes nothing
    assert np.array_equal(step_to(s, [[0, 1], [2, 3]]).values, s.values)
    with pytest.raises(ValueError):
        step_to(w, [[0, 1, 2], [3]])     # unequal block sizes
    with pytest.raises(ValueError):
        step_to(w, [[0, 1], [1, 2]])     # not a partition
    for bad in (0.5, True, "0"):         # indices are whole numbers
        with pytest.raises(ValueError, match="cell indices must be integers"):
            step_to(w, [[bad, 1], [2, 3]])
    assert np.array_equal(step_to(w, [[0.0, 1], [2, 3.0]]).values, s.values)
    with pytest.raises(ValueError, match="no blocks given"):
        step_to(w, [])


def reference_step_to(w, blocks):
    """The per-block-pair loop form of step_to (valid partitions only)."""
    blocks = [np.asarray(sorted(int(i) for i in b), dtype=np.intp) for b in blocks]
    out = np.array(w.values, dtype=np.float64)
    for bi in blocks:
        for bj in blocks:
            out[np.ix_(bi, bj)] = w.values[np.ix_(bi, bj)].mean()
    return StepGraphon(out)


def test_step_to_matches_the_block_pair_loop():
    # scattered and contiguous blocks, rounded and tied values, blocks of up
    # to 16 cells (a pair of 256 values sums in several pairwise blocks)
    rng = np.random.Generator(np.random.Philox(31))
    for trial in range(150):
        b = int(rng.choice([1, 2, 3, 4, 5, 8, 12, 16]))
        nb = int(rng.integers(1, max(2, 49 // b)))
        n = b * nb
        w = random_symmetric(n, rng, -10.0, 10.0)
        if trial % 3 == 1:
            w = StepGraphon(np.round(w.values, 1))
        elif trial % 3 == 2:
            w = StepGraphon(np.floor(w.values / 7.0))
        order = rng.permutation(n) if trial % 2 else np.arange(n)
        blocks = [order[i * b:(i + 1) * b].tolist() for i in rng.permutation(nb)]
        assert np.array_equal(step_to(w, blocks).values, reference_step_to(w, blocks).values)


def test_stepping_is_contractive_in_every_norm():
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(25):
        n = int(rng.choice([4, 6, 8, 12]))
        w = random_symmetric(n, rng)
        k = int(rng.choice([b for b in (2, 3, 4) if n % b == 0]))
        order = rng.permutation(n)
        blocks = [sorted(order[i::k].tolist()) for i in range(k)]
        s = step_to(w, blocks)
        for p in (1, 2, 6, np.inf):
            assert lp_norm(s, p) <= lp_norm(w, p) + 1e-9
        assert cut_norm_exact(s).value <= cut_norm_exact(w).value + 1e-9


# ---------------------------------------------------------------------------
# cut-off

def test_cutoff_examples():
    res = cutoff(StepGraphon([[3.0, 1.0], [1.0, 3.0]]), 2.0)
    assert np.array_equal(res.graphon.values, [[0.0, 1.0], [1.0, 0.0]])
    assert res.exceed_measure == 0.5

    const = cutoff(StepGraphon(np.full((3, 3), 5.0)), 5.0)   # strict inequality
    assert np.all(const.graphon.values == 5.0)
    assert const.exceed_measure == 0.0

    with pytest.raises(ValueError):
        cutoff(StepGraphon(np.eye(2)), 0.0)


@seed(12)
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000),
       st.floats(0.05, 3.0, allow_nan=False))
def test_cutoff_idempotent(n, s, thr):
    rng = np.random.Generator(np.random.Philox(s))
    w = StepGraphon(0.5 * (lambda m: m + m.T)(rng.uniform(0, 4, (n, n))))
    once = cutoff(w, thr)
    twice = cutoff(once.graphon, thr)
    assert np.array_equal(once.graphon.values, twice.graphon.values)
    assert twice.exceed_measure == 0.0
    assert np.all(once.graphon.values <= thr)


# ---------------------------------------------------------------------------
# Robinson shape check

def test_is_robinson_accepts_and_finds_first_witness():
    good = StepGraphon([[3.0, 2.0, 1.0], [2.0, 3.0, 2.0], [1.0, 2.0, 3.0]])
    assert is_robinson(good).robinson
    bad = StepGraphon([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    chk = is_robinson(bad)
    assert not chk.robinson
    assert chk.witness == (0, 0, 2)   # v[0,2] > v[0,0] comes first lexicographically


def test_is_robinson_matches_brute_force():
    rng = np.random.Generator(np.random.Philox(99))
    agree = 0
    for trial in range(120):
        n = int(rng.integers(2, 21))
        # quantised values produce plenty of exact ties
        v = np.round(rng.uniform(0, 1, (n, n)) * 4) / 4
        w = StepGraphon(0.5 * (v + v.T))
        tol = float(rng.choice([0.0, 0.1]))
        mine = is_robinson(w, tol)
        ref_ok, ref_wit = brute_force_robinson(w.values, tol)
        assert mine.robinson == ref_ok
        if not ref_ok:
            assert mine.witness == ref_wit
        agree += 1
    assert agree == 120


def test_is_robinson_equals_the_former_scan():
    rng = np.random.Generator(np.random.Philox(1901))
    checked = 0
    for w in robinson_families(rng, 400):
        for tol in (0.0, 1e-12, 0.05):
            assert is_robinson(w, tol) == robinson_scan_reference(w, tol)
            checked += 1
    assert checked == 1200
    # n = 300 with its only violation in the last rows
    v = np.array(toeplitz_decay(300, seed=4).values)
    v[297, 299] = v[299, 297] = v[297, 298] + 0.25
    w = StepGraphon(v)
    assert is_robinson(w) == robinson_scan_reference(w, 0.0) == (False, (297, 297, 299))


def test_is_robinson_witness_follows_its_verdict_where_rounding_splits_the_forms():
    # a > fl(b + tol), yet fl(a - b) rounds down to tol: the verdict says
    # violated, and the former difference-form scan found no triple
    b, a, tol = 0.00487344528291896, 0.054873445282918966, 0.05
    assert a > b + tol and not a - b > tol
    w = StepGraphon([[b, a], [a, b]])
    assert is_robinson(w, tol) == RobinsonCheck(False, (0, 0, 1))
    assert brute_force_robinson(w.values, tol) == (False, (0, 0, 1))
    with pytest.raises(AssertionError, match="inconsistent"):
        robinson_scan_reference(w, tol)


def test_is_robinson_tolerance_semantics():
    w = StepGraphon([[1.0, 0.95], [0.95, 0.9]])   # v[0,1] > v[1,1] by 0.05
    assert not is_robinson(w, 0.04).robinson
    assert is_robinson(w, 0.05).robinson
    with pytest.raises(ValueError):
        is_robinson(w, -1e-9)


# ---------------------------------------------------------------------------
# one rule for counts, seeds and levels: an int or an integral float, never a
# bool, a string or a fraction


def _count_cases():
    import robinson_lab as rl

    small = rl.toeplitz_decay(4, seed=1)
    planted, _ = rl.plant_violation(rl.toeplitz_decay(6, seed=2), 0.4, seed=3)
    twenty = random_symmetric(20, np.random.Generator(np.random.Philox(7)))
    rm = rl.compute_regions(rl.cumulative_envelope(8, seed=5), 3, 0.1, raster=16)
    return {
        # name: (call with the value, least whole value accepted)
        "refine": (lambda v: refine(small, v), 1),
        "deviation_exact refinement": (lambda v: rl.deviation_exact(small, refinement=v), 1),
        "deviation_heuristic refinement":
            (lambda v: rl.deviation_heuristic(planted, refinement=v, restarts=2), 1),
        "deviation_heuristic restarts": (lambda v: rl.deviation_heuristic(planted, restarts=v), 0),
        "deviation_heuristic seed":
            (lambda v: rl.deviation_heuristic(planted, restarts=2, seed=v), 0),
        "estimate_deviation refinement": (lambda v: rl.estimate_deviation(small, refinement=v), 1),
        "estimate_deviation restarts": (lambda v: rl.estimate_deviation(small, restarts=v), 0),
        "estimate_deviation seed": (lambda v: rl.estimate_deviation(small, seed=v), 0),
        "cut_norm restarts": (lambda v: rl.cut_norm(twenty, restarts=v), 1),
        "cut_norm seed": (lambda v: rl.cut_norm(small, seed=v), 0),
        "cut_norm cap": (lambda v: rl.cut_norm(small, cap=v), 0),
        "cut_norm_local_search restarts": (lambda v: rl.cut_norm_local_search(twenty, restarts=v), 1),
        "cut_norm_local_search seed": (lambda v: rl.cut_norm_local_search(twenty, seed=v), 0),
        "toeplitz_decay n": (lambda v: rl.toeplitz_decay(v), 1),
        "toeplitz_decay seed": (lambda v: rl.toeplitz_decay(5, seed=v), 0),
        "cumulative_envelope n": (lambda v: rl.cumulative_envelope(v), 1),
        "cumulative_envelope seed": (lambda v: rl.cumulative_envelope(5, seed=v), 0),
        "smooth_exp n": (lambda v: rl.smooth_exp(v), 1),
        "quadratic_sum n": (lambda v: rl.quadratic_sum(v), 1),
        "sample_random_graph n_vertices": (lambda v: rl.sample_random_graph(small, v), 1),
        "sample_random_graph seed": (lambda v: rl.sample_random_graph(small, 5, seed=v), 0),
        "add_noise seed": (lambda v: rl.add_noise(small, "uniform_bounded", 0.1, seed=v), 0),
        "permute_scramble seed": (lambda v: rl.permute_scramble(small, seed=v), 0),
        "plant_violation seed": (lambda v: rl.plant_violation(small, 0.2, seed=v), 0),
        "CellSet resolution": (lambda v: rl.CellSet(v, (0, 1)), 1),
        "CellSet index": (lambda v: rl.CellSet(4, (v, 3)), 0),
        "high_mask k": (lambda v: rm.high_mask(v), 0),
        "low_mask k": (lambda v: rm.low_mask(v), 0),
        "band_mask k": (lambda v: rm.band_mask(v), 0),
        "grey_mask k": (lambda v: rm.grey_mask(v), 1),
    }


def _same(a, b):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, StepGraphon):
        return np.array_equal(a.values, b.values)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(_count_cases()))
def test_counts_seeds_and_levels_are_whole_numbers(name):
    call, least = _count_cases()[name]
    for bad in (2.5, True, "2", least - 1):
        with pytest.raises(ValueError):
            call(bad)
    assert _same(call(2.0), call(2))


def test_levels_above_the_top_are_rejected():
    import robinson_lab as rl

    rm = rl.compute_regions(rl.cumulative_envelope(8, seed=5), 3, 0.1, raster=16)
    top = rm.total_levels
    for mask, most in ((rm.high_mask, top), (rm.low_mask, top),
                       (rm.band_mask, top - 1), (rm.grey_mask, top - 1)):
        mask(most)
        with pytest.raises(ValueError, match="k out of range"):
            mask(most + 1)


def _nan_cases():
    import robinson_lab as rl
    from robinson_lab.combinatorics import IntervalSet

    w = rl.toeplitz_decay(6, seed=2)
    planted, _ = rl.plant_violation(w, 0.4, seed=3)
    assert not is_robinson(planted).robinson
    nan = math.nan
    cells = rl.CellSet(6, (0, 1, 2))
    whole = re.escape("alpha*|set| must be a whole number of cells in [1, |set|]")
    return {
        "is_robinson tol": (lambda: is_robinson(planted, tol=nan), "tol must be >= 0"),
        "lp_norm p": (lambda: lp_norm(w, nan), "p must be >= 1"),
        "theoretical_bound p": (lambda: rl.theoretical_bound(nan, 0.1), "norm index must exceed 5"),
        "theoretical_bound p at zero": (lambda: rl.theoretical_bound(nan, 0.0), "norm index must exceed 5"),
        "theoretical_bound p below 5 at zero":
            (lambda: rl.theoretical_bound(3, 0.0), "norm index must exceed 5"),
        "theoretical_bound lam": (lambda: rl.theoretical_bound(6.0, nan), "deviation must be >= 0"),
        "theoretical_bound inf_norm":
            (lambda: rl.theoretical_bound(math.inf, 0.1, inf_norm=nan), "inf_norm must be >= 0"),
        "diagonal_band_integral halfwidth":
            (lambda: rl.diagonal_band_integral(w, nan), "halfwidth must be a number"),
        "proposition_constants p": (lambda: rl.proposition_constants(w, nan), "p must be >= 1"),
        "add_noise magnitude":
            (lambda: rl.add_noise(w, "sign_flip", nan), "magnitude must be >= 0"),
        "IntervalSet lower end": (lambda: IntervalSet(((nan, 0.5),)), "leaves"),
        "IntervalSet upper end": (lambda: IntervalSet(((0.2, nan),)), "leaves"),
        "plant_violation gap": (lambda: rl.plant_violation(w, nan), "gap must be positive"),
        "smooth_exp rate": (lambda: rl.smooth_exp(4, rate=nan), "rate must be >= 0"),
        "pigeonhole_shrink alpha": (lambda: rl.pigeonhole_shrink(w, cells, cells, nan), whole),
        "pigeonhole_shrink infinite alpha":
            (lambda: rl.pigeonhole_shrink(w, cells, cells, math.inf), whole),
    }


@pytest.mark.parametrize("name", sorted(_nan_cases()))
def test_nan_fails_every_range_check(name):
    call, message = _nan_cases()[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_theoretical_bound_reads_p_as_a_number():
    import robinson_lab as rl

    assert rl.theoretical_bound("inf", 0.5) == rl.theoretical_bound(math.inf, 0.5)
    assert rl.theoretical_bound("6", 0.5) == rl.theoretical_bound(6.0, 0.5)
