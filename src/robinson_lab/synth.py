"""Synthetic step-graphon generators and perturbations.

Everything here is deterministic given an explicit seed (Philox streams), so
test fixtures and CLI runs can be reproduced bit-for-bit.  Generators marked
"ordered" produce matrices where values never increase while moving away from
the diagonal along a row or column; the others are deliberately not of that
shape so recognition and recovery paths get exercised on both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StepGraphon, _rng, _whole_number, lp_norm
from .cutnorm import cut_norm, DEFAULT_DISPATCH_CAP
from .approx import monotone_envelope


def toeplitz_decay(n: int, seed: int = 0) -> StepGraphon:
    """Random Toeplitz matrix V[i][j] = h(|i-j|) with h nonincreasing.

    Values lie in [0, 1] and the ordered shape holds exactly: for i <= j <= k,
    |i-k| >= max(|i-j|, |j-k|) so V[i][k] <= min(V[i][j], V[j][k]).
    """
    n = _whole_number(n, 1, "n must be >= 1")
    rng = _rng(seed)
    h = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return StepGraphon(h[idx])


def cumulative_envelope(n: int, seed: int = 0) -> StepGraphon:
    """Monotone envelope of a random symmetric matrix (ordered by construction)."""
    n = _whole_number(n, 1, "n must be >= 1")
    rng = _rng(seed)
    g = rng.uniform(0.0, 1.0, size=(n, n))
    g = 0.5 * (g + g.T)
    return StepGraphon(monotone_envelope(g))


def smooth_exp(n: int, rate: float = 3.0) -> StepGraphon:
    """Deterministic exp(-rate * |i-j| / n) kernel; ordered, values in (0, 1]."""
    n = _whole_number(n, 1, "n must be >= 1")
    if not rate >= 0:
        raise ValueError("rate must be >= 0")
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return StepGraphon(np.exp(-rate * idx / n))


def quadratic_sum(n: int) -> StepGraphon:
    """Exact cell averages of the kernel x^2 + y^2 on an n x n grid.

    The average of x^2 over [a, b] is (a^2 + a b + b^2) / 3, so each cell value
    is that expression evaluated per axis and summed.  Not ordered: values grow
    away from the origin, not away from the diagonal.
    """
    n = _whole_number(n, 1, "n must be >= 1")
    edges = np.arange(n + 1) / n
    a, b = edges[:-1], edges[1:]
    sq = (a * a + a * b + b * b) / 3.0
    return StepGraphon(sq[:, None] + sq[None, :])


@dataclass(frozen=True)
class NoiseReport:
    """Measured size of an additive symmetric perturbation."""

    kind: str
    magnitude: float
    seed: int
    cut_norm: float
    cut_norm_exact: bool
    l1: float
    l2: float
    linf: float
    spike_density: float | None = None   # sparse_spikes only


_NOISE_KINDS = ("uniform_bounded", "sparse_spikes", "sign_flip")


def _noise_matrix(w: StepGraphon, kind: str, magnitude: float, rng,
                  spike_density: float = 0.05) -> np.ndarray:
    iu = np.triu_indices(w.n)
    if kind == "uniform_bounded":
        upper = magnitude * rng.uniform(-1.0, 1.0, size=iu[0].size)
    elif kind == "sparse_spikes":
        # heavy-tail model: a `spike_density` fraction of cells jumps by the
        # spike height `magnitude`; keeps lp norms finite while inflating linf
        if not 0.0 < spike_density <= 1.0:
            raise ValueError("spike_density must lie in (0, 1]")
        count = max(1, int(round(spike_density * iu[0].size)))
        pick = rng.choice(iu[0].size, size=count, replace=False)
        upper = magnitude * np.bincount(pick, minlength=iu[0].size)
    elif kind == "sign_flip":
        # magnitude acts as the per-cell flip probability here
        if magnitude > 1.0:
            raise ValueError("sign_flip magnitude is a flip probability; must be <= 1")
        upper = -2.0 * (rng.random(iu[0].size) < magnitude) * w.values[iu]
    else:
        raise ValueError(f"unknown noise kind {kind!r}; expected one of {_NOISE_KINDS}")
    noise = np.empty((w.n, w.n))
    noise[iu] = noise[iu[::-1]] = upper
    return noise


def add_noise(
    w: StepGraphon,
    kind: str,
    magnitude: float,
    seed: int = 0,
    spike_density: float = 0.05,
    cutnorm_cap: int = DEFAULT_DISPATCH_CAP,
    cutnorm_restarts: int = 50,
):
    """Perturb ``w`` symmetrically and report the measured size of the change.

    Returns ``(noisy, report)``. The perturbation pattern depends only on
    ``(w.n, kind, seed)`` (plus ``spike_density`` for ``sparse_spikes``) — for
    ``uniform_bounded`` and ``sparse_spikes`` the noise is ``magnitude`` times
    a fixed unit pattern, so every reported norm scales linearly with
    ``magnitude``.  For ``sign_flip`` it is the per-cell flip probability,
    at most 1.
    """
    if not magnitude >= 0:
        raise ValueError("magnitude must be >= 0")
    noise = _noise_matrix(w, kind, magnitude, _rng(seed), spike_density=spike_density)
    noisy = StepGraphon(w.values + noise)
    diff = noisy - w
    res = cut_norm(diff, cap=cutnorm_cap, restarts=cutnorm_restarts, seed=seed)
    report = NoiseReport(
        kind=kind,
        magnitude=float(magnitude),
        seed=int(seed),
        cut_norm=res.value,
        cut_norm_exact=res.exact,
        l1=lp_norm(diff, 1),
        l2=lp_norm(diff, 2),
        linf=lp_norm(diff, np.inf),
        spike_density=float(spike_density) if kind == "sparse_spikes" else None,
    )
    return noisy, report


def sample_random_graph(w: StepGraphon, n_vertices: int, seed: int = 0):
    """Sample a w-random graph: latent points x_i ~ U[0,1), edges w(x_i, x_j).

    Returns ``(adjacency_graphon, xs)`` where the adjacency is the 0/1 step
    graphon of the sampled simple graph.  Requires values within [0, 1].
    """
    v = w.values
    if v.min() < -1e-12 or v.max() > 1 + 1e-12:
        raise ValueError("edge probabilities must lie in [0, 1]")
    n_vertices = _whole_number(n_vertices, 1, "n_vertices must be >= 1")
    rng = _rng(seed)
    xs = rng.random(n_vertices)
    cells = np.minimum((xs * w.n).astype(int), w.n - 1)
    probs = np.clip(v[np.ix_(cells, cells)], 0.0, 1.0)
    coin = rng.random((n_vertices, n_vertices))
    adj = np.triu(coin < probs, 1).astype(float)
    adj = adj + adj.T
    return StepGraphon(adj), xs


def permute_scramble(w: StepGraphon, seed: int = 0):
    """Apply a random simultaneous row/column permutation.  Returns (graphon, perm)."""
    rng = _rng(seed)
    perm = rng.permutation(w.n)
    return StepGraphon(w.values[np.ix_(perm, perm)]), perm


def plant_violation(w: StepGraphon, gap: float, seed: int = 0):
    """Overwrite one symmetric off-diagonal pair to break the ordered shape.

    Picks indices i < j < k with k >= i + 2 and sets V[i][k] (and its mirror)
    to max(V[i][j], V[j][k]) + gap.  Singleton witnesses {i}, {j}, {k} then give
    each one-sided deviation term at least gap / n^2, so the combined deviation
    of the planted graphon is at least gap / n^2.

    Returns ``(planted, (i, j, k))``.
    """
    if w.n < 3:
        raise ValueError("need at least 3 cells to plant a violation")
    if not gap > 0:
        raise ValueError("gap must be positive")
    rng = _rng(seed)
    i = int(rng.integers(0, w.n - 2))
    k = int(rng.integers(i + 2, w.n))
    j = int(rng.integers(i + 1, k))
    v = w.values.copy()
    v[i, k] = v[k, i] = max(v[i, j], v[j, k]) + gap
    return StepGraphon(v), (i, j, k)
