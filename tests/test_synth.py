"""Generators, noise models, sampling, scrambling, planted violations."""

import numpy as np
import pytest
from scipy import integrate

from robinson_lab import (
    StepGraphon,
    add_noise,
    cumulative_envelope,
    cut_norm,
    deviation_exact,
    is_robinson,
    permute_scramble,
    plant_violation,
    quadratic_sum,
    sample_random_graph,
    smooth_exp,
    toeplitz_decay,
)


# ---------------------------------------------------------------------------
# generators

def test_smooth_exp_formula():
    w = smooth_exp(4, rate=3.0)
    idx = np.abs(np.arange(4)[:, None] - np.arange(4)[None, :])
    assert np.array_equal(w.values, np.exp(-3.0 * idx / 4))
    assert is_robinson(w).robinson
    assert np.all(smooth_exp(3, rate=0.0).values == 1.0)
    with pytest.raises(ValueError):
        smooth_exp(0)
    with pytest.raises(ValueError):
        smooth_exp(3, rate=-1.0)


def test_quadratic_sum_cell_averages():
    w = quadratic_sum(2)
    want = np.array([[1.0 / 6.0, 2.0 / 3.0], [2.0 / 3.0, 7.0 / 6.0]])
    assert np.allclose(w.values, want, atol=1e-15)
    # independent quadrature oracle on a 3x3 grid
    q = quadratic_sum(3)
    for i in range(3):
        for j in range(3):
            val, _ = integrate.dblquad(lambda y, x: x * x + y * y,
                                       i / 3, (i + 1) / 3, j / 3, (j + 1) / 3)
            assert q.values[i, j] == pytest.approx(val * 9, abs=1e-10)
    assert not is_robinson(q).robinson     # grows away from the origin


def test_toeplitz_decay_structure():
    for seed in range(20):
        w = toeplitz_decay(9, seed=seed)
        v = w.values
        idx = np.abs(np.arange(9)[:, None] - np.arange(9)[None, :])
        assert np.array_equal(v, v[0, idx])               # Toeplitz from row 0
        assert np.all(np.diff(v[0]) <= 0)                 # nonincreasing profile
        assert v.min() >= 0.0 and v.max() <= 1.0
        assert is_robinson(w).robinson
    assert np.array_equal(toeplitz_decay(6, seed=5).values,
                          toeplitz_decay(6, seed=5).values)
    assert not np.array_equal(toeplitz_decay(6, seed=5).values,
                              toeplitz_decay(6, seed=6).values)


def test_ordered_generators_have_zero_deviation():
    for w in (toeplitz_decay(10, seed=1), cumulative_envelope(9, seed=2),
              smooth_exp(8), toeplitz_decay(12, seed=7)):
        assert is_robinson(w, 1e-12).robinson
        assert deviation_exact(w, 1).value == 0.0


# ---------------------------------------------------------------------------
# noise

def test_noise_zero_magnitude_is_a_no_op():
    w = toeplitz_decay(6, seed=1)
    for kind in ("uniform_bounded", "sparse_spikes", "sign_flip"):
        noisy, rep = add_noise(w, kind, 0.0)
        assert np.array_equal(noisy.values, w.values)
        assert rep.cut_norm == 0.0 and rep.l1 == 0.0 and rep.linf == 0.0


def test_noise_report_matches_recomputation():
    w = toeplitz_decay(8, seed=3)
    for kind, mag in (("uniform_bounded", 0.15), ("sparse_spikes", 0.8),
                      ("sign_flip", 0.3)):
        noisy, rep = add_noise(w, kind, mag, seed=11)
        diff = noisy - w
        again = cut_norm(diff, cap=16, restarts=50, seed=11)
        assert rep.cut_norm == again.value                # bit-for-bit
        assert rep.cut_norm_exact and again.exact         # n=8 routes exactly
        assert rep.linf == pytest.approx(float(np.abs(diff.values).max()), abs=0)
        assert np.max(np.abs(diff.values - diff.values.T)) == 0.0


def test_noise_norms_scale_linearly_with_magnitude():
    w = toeplitz_decay(7, seed=2)
    for kind in ("uniform_bounded", "sparse_spikes"):
        _, r1 = add_noise(w, kind, 0.05, seed=4)
        _, r2 = add_noise(w, kind, 0.10, seed=4)
        for field in ("cut_norm", "l1", "l2", "linf"):
            assert getattr(r2, field) == pytest.approx(
                2.0 * getattr(r1, field), rel=1e-12)


def test_uniform_noise_is_bounded_by_magnitude():
    w = toeplitz_decay(10, seed=9)
    noisy, rep = add_noise(w, "uniform_bounded", 0.2, seed=1)
    assert rep.linf <= 0.2
    assert np.abs(noisy.values - w.values).max() <= 0.2


def test_sparse_spike_count_follows_density():
    w = StepGraphon(np.zeros((10, 10)))
    triu = 10 * 11 // 2
    noisy, rep = add_noise(w, "sparse_spikes", 1.0, seed=2, spike_density=0.2)
    hits = int(np.count_nonzero(np.triu(noisy.values)))
    assert hits == round(0.2 * triu)
    assert rep.spike_density == 0.2
    assert rep.linf == 1.0
    _, rep_default = add_noise(w, "sparse_spikes", 1.0, seed=2)
    assert rep_default.spike_density == 0.05
    with pytest.raises(ValueError):
        add_noise(w, "sparse_spikes", 1.0, spike_density=0.0)
    assert add_noise(w, "uniform_bounded", 0.1)[1].spike_density is None


def test_sign_flip_negates_cells():
    w = toeplitz_decay(6, seed=8)
    noisy, _ = add_noise(w, "sign_flip", 1.0, seed=5)     # probability one
    assert np.array_equal(noisy.values, -w.values)
    noisy, _ = add_noise(w, "sign_flip", 0.5, seed=5)
    same = noisy.values == w.values
    flipped = noisy.values == -w.values
    assert np.all(same | flipped)


def test_noise_validation():
    w = toeplitz_decay(4, seed=0)
    with pytest.raises(ValueError):
        add_noise(w, "uniform_bounded", -0.1)
    with pytest.raises(ValueError):
        add_noise(w, "salt_and_pepper", 0.1)
    with pytest.raises(ValueError, match="flip probability; must be <= 1"):
        add_noise(w, "sign_flip", 7.5)


# ---------------------------------------------------------------------------
# graph sampling

def test_sampling_extreme_probabilities():
    full, _ = sample_random_graph(StepGraphon(np.ones((3, 3))), 30, seed=1)
    off = ~np.eye(30, dtype=bool)
    assert np.all(full.values[off] == 1.0)
    assert np.all(np.diag(full.values) == 0.0)
    empty, _ = sample_random_graph(StepGraphon(np.zeros((3, 3))), 30, seed=1)
    assert np.all(empty.values == 0.0)


def test_sampling_density_matches_probability():
    w = StepGraphon(np.full((2, 2), 0.5))
    g, xs = sample_random_graph(w, 2000, seed=42)
    assert xs.shape == (2000,) and np.all((xs >= 0) & (xs < 1))
    off = ~np.eye(2000, dtype=bool)
    density = g.values[off].mean()
    assert abs(density - 0.5) < 0.02
    assert set(np.unique(g.values).tolist()) <= {0.0, 1.0}


def test_sampling_validation_and_determinism():
    w = StepGraphon(np.full((2, 2), 0.5))
    a, xa = sample_random_graph(w, 50, seed=7)
    b, xb = sample_random_graph(w, 50, seed=7)
    assert np.array_equal(a.values, b.values) and np.array_equal(xa, xb)
    with pytest.raises(ValueError):
        sample_random_graph(StepGraphon(np.full((2, 2), 1.5)), 10)
    with pytest.raises(ValueError):
        sample_random_graph(w, 0)


# ---------------------------------------------------------------------------
# scrambling and planted violations

def test_permute_scramble_round_trip():
    w = toeplitz_decay(9, seed=3)
    scrambled, perm = permute_scramble(w, seed=12)
    inv = np.argsort(perm)
    assert np.array_equal(scrambled.values[np.ix_(inv, inv)], w.values)
    again, perm2 = permute_scramble(w, seed=12)
    assert np.array_equal(scrambled.values, again.values)
    assert np.array_equal(perm, perm2)


def test_permute_scramble_generically_breaks_the_ordered_shape():
    # a Toeplitz profile with distinct values is order-recognisable up to
    # reversal, so any other permutation must break the shape
    n = 12
    w = toeplitz_decay(n, seed=101)
    identity = np.arange(n)
    reversal = identity[::-1]
    broken = trivial = 0
    for seed in range(100):
        scrambled, perm = permute_scramble(w, seed=seed)
        if np.array_equal(perm, identity) or np.array_equal(perm, reversal):
            trivial += 1
            continue
        assert not is_robinson(scrambled, 1e-12).robinson
        broken += 1
    assert broken >= 95 and broken + trivial == 100


def test_plant_violation_guarantees_deviation():
    rng = np.random.Generator(np.random.Philox(501))
    for trial in range(25):
        n = int(rng.integers(3, 13))
        w = toeplitz_decay(n, seed=trial)
        gap = float(rng.uniform(0.05, 0.5))
        planted, (i, j, k) = plant_violation(w, gap, seed=trial)
        assert 0 <= i < j < k < n and k >= i + 2
        changed = planted.values != w.values
        assert set(zip(*np.nonzero(changed))) == {(i, k), (k, i)}
        assert planted.values[i, k] == max(w.values[i, j], w.values[j, k]) + gap
        assert not is_robinson(planted).robinson
        assert deviation_exact(planted, 1).value >= gap / (n * n) - 1e-12


def test_plant_violation_validation():
    with pytest.raises(ValueError):
        plant_violation(toeplitz_decay(2, seed=0), 0.1)
    with pytest.raises(ValueError):
        plant_violation(toeplitz_decay(5, seed=0), 0.0)
