"""Acceptance suite: one test per headline guarantee, printed pass lines.

Every criterion uses fixed seeds and exact solvers wherever the instance
sizes allow, so reruns are bit-for-bit reproducible.
"""

import hashlib
import itertools
import math
import time

import numpy as np
from scipy import stats

from robinson_lab import (
    CellSet,
    IntervalSet,
    StepGraphon,
    add_noise,
    closed_form_robinson_ae,
    compute_regions,
    cumulative_envelope,
    cut_norm_exact,
    cut_norm_local_search,
    deviation_exact,
    interval_set_integral,
    is_robinson,
    largest_grey_square,
    lp_norm,
    pigeonhole_shrink,
    plant_violation,
    quadratic_sum,
    recover,
    robinson_approx,
    smooth_exp,
    split_with_small_remainder,
    toeplitz_decay,
    verify_partition,
)
from robinson_lab.render import heatmap_svg

# frozen regression values for criterion 8 (80 fixed-seed recovery errors)
NOISE_CURVE_SHA256 = "a027c7fab9fb02ddd5c4ad7c45c8ebfceacba9cd4bf5020d973b91421c69f610"


def _rand_sym(rng, n, lo=-1.0, hi=1.0):
    m = rng.uniform(lo, hi, (n, n))
    return StepGraphon(0.5 * (m + m.T))


def _done(num, text):
    print("[PASS] criterion %d: %s" % (num, text))


def test_criterion_01_recognition():
    t0 = time.monotonic()
    makers = (
        lambda n, s: toeplitz_decay(n, seed=s),
        lambda n, s: cumulative_envelope(n, seed=s),
        lambda n, s: smooth_exp(n, rate=1.0 + (s % 5)),
    )
    for i in range(200):
        n = 3 + i % 10
        w = makers[i % 3](n, i)
        assert deviation_exact(w, 1).value == 0.0

    rng = np.random.Generator(np.random.Philox(101))
    for i in range(200):
        n = 3 + i % 10
        gap = 0.12 + 0.38 * float(rng.random())
        planted, _ = plant_violation(toeplitz_decay(n, seed=i), gap, seed=i)
        lam = deviation_exact(planted, 1).value
        assert lam > 0.0
        assert lam >= 0.1 / (n * n)          # refinement 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _done(1, "200 ordered kernels at zero, 200 planted above the floor "
             "(%.1fs)" % elapsed)


def test_criterion_02_continuity():
    rng = np.random.Generator(np.random.Philox(202))
    for i in range(500):
        n = int(rng.integers(2, 11))
        r = 2 if (n <= 7 and rng.random() < 0.5) else 1
        w = _rand_sym(rng, n)
        if rng.random() < 0.5:
            u = _rand_sym(rng, n)
        else:
            u = w + 0.3 * _rand_sym(rng, n)
        gap = cut_norm_exact(w - u).value
        lam_w = deviation_exact(w, r).value
        lam_u = deviation_exact(u, r).value
        assert abs(lam_w - lam_u) <= 2.0 * gap + 1e-9
    _done(2, "500 pairs within twice the cut-norm gap")


def test_criterion_03_deviation_inequalities():
    rng = np.random.Generator(np.random.Philox(303))
    for i in range(500):                     # subadditivity
        n = int(rng.integers(3, 9))
        w, u = _rand_sym(rng, n), _rand_sym(rng, n)
        assert deviation_exact(w + u, 1).value <= \
            deviation_exact(w, 1).value + deviation_exact(u, 1).value + 1e-9
    for i in range(500):                     # dominated by every p-norm
        n = int(rng.integers(3, 11))
        w = _rand_sym(rng, n, -2.0, 2.0)
        p = (1.0, 2.0, math.inf)[i % 3]
        assert deviation_exact(w, 1).value <= lp_norm(w, p) + 1e-9
    for i in range(500):                     # positive homogeneity
        n = int(rng.integers(3, 9))
        w = _rand_sym(rng, n)
        c = float(rng.uniform(0.1, 3.0))
        assert abs(deviation_exact(c * w, 1).value
                   - c * deviation_exact(w, 1).value) <= 1e-9
    _done(3, "subadditivity, norm domination, homogeneity on 500 instances each")


def test_criterion_04_approximation_properties():
    rng = np.random.Generator(np.random.Philox(404))
    emitted = []

    for i in range(40):                      # pointwise-order sandwich
        n = int(rng.integers(4, 9))
        u = _rand_sym(rng, n, 0.0, 1.0)
        d = _rand_sym(rng, n, 0.0, 0.6)
        alpha = (1 + i % 2) / n
        r_w = robinson_approx(u + d, alpha, mode="exact")
        r_u = robinson_approx(u, alpha, mode="exact")
        r_d = robinson_approx(d, alpha, mode="exact")
        emitted += [r_w, r_u, r_d]
        gap = r_w.values - r_u.values
        assert gap.min() >= -1e-9
        assert (gap - r_d.values).max() <= 1e-9

    for i in range(45):                      # sup-norm dominated by alpha^(-2/p)
        n = int(rng.integers(4, 11))
        w = _rand_sym(rng, n, 0.0, 2.0)
        alpha = float(rng.uniform(0.1, 0.5))
        p = (2.0, 6.0, math.inf)[i % 3]
        ra = robinson_approx(w, alpha)
        emitted.append(ra)
        scale = 1.0 if math.isinf(p) else alpha ** (-2.0 / p)
        assert ra.values.max() <= scale * lp_norm(w, p) + 1e-9

    makers = (toeplitz_decay, cumulative_envelope, lambda n, seed: smooth_exp(n))
    for i in range(30):                      # closed-form agreement when ordered
        n = int(rng.integers(4, 11))
        w = makers[i % 3](n, seed=i)
        alpha = (1 + i % 2) / n
        ra = robinson_approx(w, alpha, mode="exact")
        cf = closed_form_robinson_ae(w, alpha)
        emitted += [ra, cf]
        assert float(np.abs(ra.values - cf.values).max()) <= 1e-9

    for ra in emitted:                       # every emission is Robinson
        assert ra.robinson_validated
        assert is_robinson(ra.as_graphon(), 1e-12).robinson
    _done(4, "sandwich, sup-norm bound, closed-form agreement, "
             "%d Robinson emissions" % len(emitted))


def test_criterion_05_region_diagnostics():
    rng = np.random.Generator(np.random.Philox(505))
    for i in range(100):
        n = int(rng.integers(3, 11))
        hi = (1.0, 1.5)[i % 2]
        w = _rand_sym(rng, n, 0.0, hi)
        m = int(rng.integers(1, 5))
        alpha = float(rng.uniform(0.05, 0.45))
        rm = compute_regions(w, m, alpha, raster=128)
        assert verify_partition(rm)
        for k in range(1, rm.total_levels):
            assert largest_grey_square(rm, k) <= alpha + 2.0 / 128 + 1e-12
    _done(5, "partition audit and grey-square bound on 100 raster-128 maps")


def _check_split(res, u, p, beta):
    n = len(res.parts)
    assert n == math.ceil(p.measure / beta - 1e-12)
    assert res.remainder is res.parts[-1]
    for part in res.parts[:-1]:
        assert abs(part.measure - beta) <= 1e-12
    for a, b in zip(res.parts[:-2], res.parts[1:-1]):
        assert a.max_point() <= b.min_point() + 1e-9
    assert abs(sum(q.measure for q in res.parts) - p.measure) <= 1e-9
    pieces = sorted(iv for q in res.parts for iv in q.intervals)
    for lo, hi in pieces:
        assert any(plo - 1e-9 <= lo and hi <= phi + 1e-9 for plo, phi in p.intervals)
    for (_, hi), (lo, _) in zip(pieces[:-1], pieces[1:]):
        assert lo >= hi - 1e-9
    total = interval_set_integral(u, p)
    assert abs(res.remainder_integral) <= abs(total) / n + 1e-9
    assert abs(interval_set_integral(u, res.remainder) - res.remainder_integral) <= 1e-12


def _best_mean_density(f, rows, cols, l):
    sub = f.values[np.ix_(rows, cols)]
    combs = list(itertools.combinations(range(len(rows)), l))
    pick = np.zeros((len(combs), len(rows)))
    for r, c in enumerate(combs):
        pick[r, list(c)] = 1.0
    return float((pick @ sub @ pick.T).max()) / (l * l)


def test_criterion_06_split_and_shrink():
    rng = np.random.Generator(np.random.Philox(606))
    done = 0
    while done < 1000:
        q = int(rng.integers(1, 33))
        u = rng.uniform(-2.0, 2.0, q)
        cuts = np.sort(rng.uniform(0, 1, 2 * int(rng.integers(1, 4))))
        ivs = tuple((a, b) for a, b in zip(cuts[::2], cuts[1::2]) if b - a > 0.02)
        if not ivs:
            continue
        p = IntervalSet(ivs)
        if abs(interval_set_integral(u, p)) < 1e-3:
            continue
        beta = float(rng.uniform(0.15, 0.8)) * p.measure
        _check_split(split_with_small_remainder(u, p, beta), u, p, beta)
        done += 1

    for i in range(1000):
        q = int(rng.integers(4, 13))
        k = int(rng.integers(2, q + 1))
        l = int(rng.integers(1, k))
        idx_r = tuple(sorted(rng.choice(q, size=k, replace=False).tolist()))
        idx_c = tuple(sorted(rng.choice(q, size=k, replace=False).tolist()))
        f = _rand_sym(rng, q, 0.0, 2.0)
        t, tp = pigeonhole_shrink(f, CellSet(q, idx_r), CellSet(q, idx_c), l / k)
        assert len(t.indices) == len(tp.indices) == l
        assert set(t.indices) <= set(idx_r) and set(tp.indices) <= set(idx_c)
        got = f.values[np.ix_(t.indices, tp.indices)].mean()
        assert got >= f.values[np.ix_(idx_r, idx_c)].mean() - 1e-9
        assert got <= _best_mean_density(f, idx_r, idx_c, l) + 1e-9
    _done(6, "1000 interval splits and 1000 exhaustively checked shrinks")


def test_criterion_07_recovery_loose_bound():
    targets = np.linspace(0.012, 0.19, 50)
    for i in range(50):
        base = toeplitz_decay(10, seed=i)
        w_true = StepGraphon(base.values + 3.0)
        _, unit = add_noise(w_true, "uniform_bounded", 1.0, seed=i)
        assert unit.cut_norm_exact
        mag = float(targets[i] / unit.cut_norm)
        noisy, nrep = add_noise(w_true, "uniform_bounded", mag, seed=i)
        assert noisy.values.min() >= 0.0
        eps = nrep.cut_norm
        assert nrep.cut_norm_exact and 0.01 <= eps <= 0.2

        p = (6.0, 8.0, 12.0)[i % 3]
        _, rep = recover(noisy, p=p)
        assert rep.deviation_mode == "exact"
        assert rep.measured_error_exact
        bound = 78.0 * (2.0 * eps) ** ((p - 5.0) / (5.0 * p - 5.0))
        assert rep.measured_error <= bound
    _done(7, "50 fixed-seed runs under the loose certified bound")


def test_criterion_08_noise_monotonicity():
    # one fixed ordered kernel, one-sided (downward) spike noise scaled to hit
    # each target cut norm exactly; the window estimator is monotone, so the
    # regression curve must climb with the noise level
    v = np.ones((10, 10))
    v[2:8, 2:8] = 2.0
    w_true = StepGraphon(v)
    assert is_robinson(w_true).robinson

    eps_grid = (0.02, 0.05, 0.1, 0.2)
    errors = {}
    for eps_t in eps_grid:
        for seed in range(20):
            unit, _ = add_noise(w_true, "sparse_spikes", 1.0, seed=seed,
                                spike_density=0.7)
            pattern = unit.values - w_true.values
            mag = eps_t / (pattern.sum() / 100.0)
            noisy = StepGraphon(w_true.values - mag * pattern)
            assert noisy.values.min() >= 0.0
            assert abs(cut_norm_exact(w_true - noisy).value - eps_t) <= 1e-9
            ra = robinson_approx(noisy, 0.2)
            assert ra.mode == "exact"
            errors[(eps_t, seed)] = cut_norm_exact(w_true - ra.as_graphon()).value

    means = [np.mean([errors[(e, s)] for s in range(20)]) for e in eps_grid]
    assert all(a <= b for a, b in zip(means, means[1:]))
    xs = [e for e in eps_grid for _ in range(20)]
    ys = [errors[(e, s)] for e in eps_grid for s in range(20)]
    rho = float(stats.spearmanr(xs, ys).statistic)
    assert rho >= 0.8
    blob = ",".join("%.17g" % errors[(e, s)] for e in eps_grid for s in range(20))
    assert hashlib.sha256(blob.encode()).hexdigest() == NOISE_CURVE_SHA256
    _done(8, "error curve nondecreasing, Spearman %.3f, values hash-pinned" % rho)


def test_criterion_09_quadratic_profile_and_rendering():
    n, alpha = 200, 0.05
    w = quadratic_sum(n)
    ra = robinson_approx(w, alpha)
    assert ra.mode == "heuristic" and ra.robinson_validated

    lo = int(math.ceil(alpha * n))
    worst = 0.0
    for i in range(lo, n):
        x = i / n
        profile = (x * x - alpha * x + alpha * alpha / 3.0) \
            + (1.0 - alpha + alpha * alpha / 3.0)
        js = np.arange(max(i, lo), n)
        js = js[(js + 1) / n <= 1.0 - alpha + 1e-12]
        if len(js):
            worst = max(worst, float(np.abs(ra.values[i, js] - profile).max()))
    assert worst <= 2e-3

    assert heatmap_svg(w) == heatmap_svg(w)
    assert heatmap_svg(ra) == heatmap_svg(ra)
    _done(9, "window profile matched to %.1e, heatmaps byte-stable" % worst)


def test_criterion_10_cutnorm_heuristic_regression():
    rng = np.random.Generator(np.random.Philox(1010))
    hits = 0
    for i in range(100):
        n = 4 + i % 17
        w = _rand_sym(rng, n, -1.0, 1.0)
        exact = cut_norm_exact(w)
        local = cut_norm_local_search(w, restarts=50, seed=i)
        assert local.value <= exact.value + 1e-12           # valid lower bound
        assert abs(abs(local.box_integral(w)) - local.value) <= 1e-12
        if abs(local.value - exact.value) <= 1e-12 * max(1.0, exact.value):
            hits += 1
    assert hits >= 99
    _done(10, "local search matched the exact optimum on %d/100" % hits)
