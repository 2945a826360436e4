"""Cut norm of step graphons: exact subset enumeration and alternating local search.

For a step function the supremum over measurable boxes S x T is attained on
cell-aligned sets: the box integral is linear in each cell's fractional
membership, so some extreme point (an indicator vector) is optimal.  Both
solvers below therefore work directly on cell subsets.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import CellSet, StepGraphon, _rng, _seed, _whole_number

EXACT_HARD_CAP = 24          # absolute limit on 2^n enumeration
DEFAULT_DISPATCH_CAP = 16    # dispatcher switches to local search above this
_CHUNK_BITS = 12            # 4,096 subsets a chunk: each array stays within 768 KB


@dataclasses.dataclass(frozen=True)
class CutNormResult:
    value: float
    witness_s: CellSet
    witness_t: CellSet
    mode: str            # "exact" or "localsearch"
    exact: bool

    def box_integral(self, w: StepGraphon) -> float:
        """|integral of w over witness_s x witness_t| recomputed from scratch."""
        return abs(_box_value(w.values, self.witness_s.as_array(),
                              self.witness_t.as_array(), w.n))


def _box_value(v, s_idx, t_idx, n):
    # correctly-rounded box integral: fsum the participating cells
    if len(s_idx) == 0 or len(t_idx) == 0:
        return 0.0
    return math.fsum(v[np.ix_(s_idx, t_idx)].ravel().tolist()) / (n * n)


def cut_norm_exact(w: StepGraphon) -> CutNormResult:
    """Exact cut norm by enumerating all 2^n row subsets.

    For each subset S the best T is read off the signs of the column sums,
    once per sign of the objective.  Ties are broken toward the smallest
    subset bitmask (bit i = cell i).  Feasible for n <= 24.
    """
    n = w.n
    if n > EXACT_HARD_CAP:
        raise ValueError("n=%d exceeds exact enumeration cap %d" % (n, EXACT_HARD_CAP))
    v = w.values
    total = 1 << n
    chunk = 1 << min(_CHUNK_BITS, n)

    # one scan over both signs: fsum-refine every (sign, row) whose raw sum is
    # positive and within 1e-9 of the best raw sum B so far, a superset of the
    # rows tied with the final best (the raw sums are BLAS products with ones,
    # a few ulps off, far inside the slack); ties go to the smallest S, then T
    # mask.  The empty box starts the scan, so B = 0 (every box sum 0) keeps it.
    empty = np.zeros(0, dtype=np.intp)
    best_key, best_box, top = (-0.0, 0, 0), (empty, empty), 0.0   # key: (-value, S mask, T mask)
    ones = np.ones(n)
    for lo in range(0, total, chunk):
        masks = np.arange(lo, min(lo + chunk, total), dtype="<u4").view(np.uint8)
        bits = np.unpackbits(masks.reshape(-1, 4), axis=1, count=n,
                             bitorder="little").astype(np.float64)
        c = bits @ v
        pos = np.maximum(c, 0.0, out=bits) @ ones
        raw = np.stack([pos, pos - c @ ones])   # the + and - sign's sums
        top = max(top, float(raw.max()))
        for sign, row in zip(*np.nonzero((raw >= top - 1e-9 * top) & (raw > 0))):
            mask = lo + int(row)
            s_idx = np.flatnonzero((mask >> np.arange(n)) & 1)
            t_idx = np.flatnonzero(c[row] < 0 if sign else c[row] > 0)
            key = (-abs(_box_value(v, s_idx, t_idx, n)), mask, int((1 << t_idx).sum()))
            if key < best_key:
                best_key, best_box = key, (s_idx, t_idx)
    s_idx, t_idx = best_box
    return CutNormResult(value=-best_key[0], witness_s=CellSet(n, s_idx),
                         witness_t=CellSet(n, t_idx), mode="exact", exact=True)


def cut_norm_local_search(w: StepGraphon, restarts: int = 50, seed: int = 0) -> CutNormResult:
    """Alternating-maximisation lower bound on the cut norm.

    Each restart draws a random row subset, then alternates: fix S, set
    T = {j : column sum > 0}; fix T, reset S likewise; repeat until S comes
    back unchanged for every restart of both signs of the objective (a fixed
    point) or for 200 rounds.  The first (sign, restart) with the largest
    value wins.  Deterministic for a given seed, and never exceeds the exact
    value.
    """
    restarts = _whole_number(restarts, 1, "restarts must be >= 1")
    n = w.n
    v = np.stack([w.values, -w.values])   # one slice per sign of the objective
    s = (_rng(seed).random((2, restarts, n)) < 0.5).astype(np.float64)
    c = s @ v
    for _ in range(200):   # a sign at its fixed point repeats bit for bit
        t = (c > 0).astype(np.float64)
        s_new = (t @ v > 0).astype(np.float64)
        if np.array_equal(s_new, s):
            break
        s = s_new
        c = s @ v
    t = (c > 0).astype(np.float64)
    val = np.einsum("kij,kij->ki", c, t)
    best = np.unravel_index(np.argmax(val), val.shape)   # the first best (sign, restart)
    s_idx, t_idx = np.flatnonzero(s[best]), np.flatnonzero(t[best])
    return CutNormResult(value=abs(_box_value(w.values, s_idx, t_idx, n)),
                         witness_s=CellSet(n, s_idx), witness_t=CellSet(n, t_idx),
                         mode="localsearch", exact=False)


def cut_norm(w: StepGraphon, cap: int = DEFAULT_DISPATCH_CAP,
             restarts: int = 50, seed: int = 0) -> CutNormResult:
    """Dispatcher: exact enumeration when n <= min(cap, 24), local search otherwise."""
    cap = _whole_number(cap, 0, "cap must be a whole number >= 0")
    restarts = _whole_number(restarts, 1, "restarts must be >= 1")
    seed = _seed(seed)
    if w.n <= min(cap, EXACT_HARD_CAP):
        return cut_norm_exact(w)
    return cut_norm_local_search(w, restarts=restarts, seed=seed)
