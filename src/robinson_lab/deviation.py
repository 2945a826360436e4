"""How far is a step graphon from Robinson form?

The deviation score (``deviation_exact`` / ``deviation_heuristic``) averages
the positive parts of two one-sided terms: for ordered cell-index triples
A < B < C of equal size, how much mass the far box A x C carries above the
nearer boxes B x C (left term) and A x B (right term, by symmetry).  It is zero on Robinson graphons, continuous in
cut norm, subadditive and positively homogeneous.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Optional, Tuple

import numpy as np

from .core import CellSet, StepGraphon, _rng, _whole_number, refine

EXACT_DEVIATION_CAP = 15   # refined grid size limit for exact enumeration
_SWEEP_CAP = 24            # heuristic boundary-lattice positions per axis


@dataclasses.dataclass(frozen=True)
class DeviationCertificate:
    value: float
    term_left: float                 # max over triples of box(A,C) - box(B,C), floored at 0
    term_right: float                # max over triples of box(A,C) - box(A,B), floored at 0
    witness_left: Optional[Tuple[CellSet, CellSet, CellSet]]   # None when floored
    witness_right: Optional[Tuple[CellSet, CellSet, CellSet]]
    refinement: int
    mode: str                        # "exact" or "heuristic"

    def recompute(self, w: StepGraphon) -> float:
        """Re-evaluate the certificate value from its witnesses alone.

        A missing witness stands for the empty-triple choice and contributes
        zero; no flooring happens here, so this reproduces ``value`` exactly
        only because negative-term witnesses are never stored.
        """
        q = w.n * self.refinement
        v = refine(w, self.refinement).values
        tl = _triple_value(v, *self.witness_left, q=q, right=False) \
            if self.witness_left else 0.0
        tr = _triple_value(v, *self.witness_right, q=q, right=True) \
            if self.witness_right else 0.0
        return 0.5 * tl + 0.5 * tr


def _triple_value(v, a_set, b_set, c_set, q, right):
    """Exact (correctly rounded) value of one ordered-triple candidate."""
    a, b, c = (np.asarray(x.indices if isinstance(x, CellSet) else x, dtype=np.intp)
               for x in (a_set, b_set, c_set))
    # right: box(A,C) - box(A,B), differences along the second index
    near = v[np.ix_(a, b)] if right else v[np.ix_(b, c)]
    return math.fsum(np.concatenate([v[np.ix_(a, c)].ravel(), -near.ravel()]).tolist()) / (q * q)


def _certificate(w, r, mode, table):
    """The skeleton of both solvers: refine ``w`` r times per axis, maximise
    the left term with ``_term_max(v, q, table)`` on v and on v reflected
    (the right term, by symmetry), reflect that witness back, and floor."""
    q = w.n * r
    v = refine(w, r).values
    terms = []
    for flip, u in enumerate((v, v[::-1, ::-1])):
        t, wit = _term_max(u, q, table)
        # flooring = choosing the empty triple, so negative witnesses are dropped
        if t is None or t < 0.0:
            terms += [0.0, None]
            continue
        # the kernel is symmetric, so the reflected witness covers the same
        # multiset of entries and its correctly rounded value carries over
        if flip:
            wit = [[q - 1 - i for i in part] for part in wit[::-1]]
        terms += [t, tuple(CellSet(q, part) for part in wit)]
    t_left, wit_left, t_right, wit_right = terms
    return DeviationCertificate(
        value=0.5 * t_left + 0.5 * t_right, term_left=t_left, term_right=t_right,
        witness_left=wit_left, witness_right=wit_right, refinement=r, mode=mode)


def deviation_exact(w: StepGraphon, refinement: int = 1) -> DeviationCertificate:
    """Exact Robinson deviation on the refined cell grid.

    The heuristic's search, started from every C (``_exact_table``).  For
    any triple A < B < C the start (min C, min B, |C|, C) answers C with
    the best A and B, and later rounds never lower the value, so the best
    start reaches the maximum, up to the float ranking of exact ties.  The
    first start in table order with the largest value wins.

    :param w: step graphon
    :param refinement: split every cell this many times per axis before
        enumerating; the grid size n*refinement must stay <= 15
    """
    r = _whole_number(refinement, 1, "refinement must be >= 1")
    if w.n * r > EXACT_DEVIATION_CAP:
        raise ValueError("refined grid %d exceeds exact cap %d" % (w.n * r, EXACT_DEVIATION_CAP))
    table = _exact_table(w.n * r)   # both terms search the same starts
    return _certificate(w, r, "exact", lambda q: table)


def _pick(key, k):
    """Ascending column indices of the k smallest keys per row, ties by index."""
    return np.sort(np.argsort(key, axis=1, kind="stable")[:, :k], axis=1)


def _alternate(v, t2, s, c, k):
    """Alternating best responses for starts of one block size, in lockstep.

    Row i starts from the ascending block ``c[i]`` right of ``t2[i]``, with A
    drawn from ``[0, s[i])`` and B from ``[s[i], t2[i])``.  Each round
    answers C with (A, B) and then (A, B) with C.  A start stops when its C
    comes back unchanged (a fixed point: later rounds repeat it bit for bit)
    or after 30 rounds, and keeps its last round, the best: every response
    is a best response, so in exact arithmetic the value never falls.  Row
    sums gather ascending index sets and add them in that order, so every
    start computes what it would compute alone.  Returns the values and the
    (A, B, C) index arrays of shape (3, starts, k).
    """
    cols = np.arange(v.shape[0])
    in_a = cols < s[:, None]
    in_b = ~in_a & (cols < t2[:, None])
    in_c = cols >= t2[:, None]
    best = np.empty(len(c))
    trip = np.empty((3, len(c), k), dtype=np.intp)
    live = np.arange(len(c))
    for _ in range(30):
        f = v[c].sum(axis=1)
        a = _pick(np.where(in_a[live], -f, np.inf), k)
        b = _pick(np.where(in_b[live], f, np.inf), k)
        g = v[a].sum(axis=1) - v[b].sum(axis=1)
        c_new = _pick(np.where(in_c[live], -g, np.inf), k)
        best[live] = np.take_along_axis(g, c_new, axis=1).sum(axis=1)
        trip[:, live] = a, b, c_new
        moved = (c_new != c).any(axis=1)
        live, c = live[moved], c_new[moved]
        if not len(live):
            break
    return best, trip


def _read_only(*arrays):
    """Lock a cached table: every caller is handed the same arrays."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=1)   # both terms of a call share q
def _swept_starts(q):
    """The swept starts of ``_start_table``, read-only: each lattice pair
    (t2, s) with the block sizes k <= m = min(s, t2 - s, q - t2) in
    ascending order, all of them when m <= 16 and else the powers of two and
    m itself, and C = t2, ..., t2 + k - 1."""
    def lattice(lo, hi):   # up to _SWEEP_CAP integers in [lo, hi], hi >= lo
        return np.unique(np.linspace(lo, hi, min(_SWEEP_CAP, hi - lo + 1)).round().astype(np.intp))

    t2, s = np.array([(t2, s) for t2 in lattice(2, q - 1) for s in lattice(1, t2 - 1)]).T
    m = np.minimum(np.minimum(s, t2 - s), q - t2)[:, None]
    ks = np.arange(1, q // 3 + 1)
    pair, k = np.nonzero((ks <= m) & ((m <= 16) | ((ks & (ks - 1)) == 0) | (ks == m)))
    return _read_only(t2[pair], s[pair], ks[k], t2[pair, None] + np.arange(q // 3))


def _start_table(q, restarts, rng):
    """Every start of the left-term search: split t2, split s, block size k
    and the table ``c``, whose row i begins with start i's ascending C block.

    The swept starts (``_swept_starts``) come first, then the seeded
    restarts, drawn from ``rng`` one at a time.  As k <= m <= q / 3, the
    table is q // 3 wide.
    """
    rest = np.empty((3, restarts), dtype=np.intp)
    rest_c = np.zeros((restarts, q // 3), dtype=np.intp)
    for j in range(restarts):
        rt = int(rng.integers(2, q))
        rs = int(rng.integers(1, rt))
        rk = int(rng.integers(1, min(rs, rt - rs, q - rt) + 1))
        rest[:, j] = rt, rs, rk
        rest_c[j, :rk] = np.sort(rng.choice(q - rt, size=rk, replace=False) + rt)
    return tuple(np.concatenate(parts) for parts in zip(_swept_starts(q), (*rest, rest_c)))


@functools.lru_cache(maxsize=None)   # q <= 15: a few small tables
def _exact_table(q):
    """Every start of the exact left-term search, laid out as ``_start_table``
    and read-only: each split t2 = min C, block size k, split s with
    k <= s <= t2 - k and C, which is t2 and k - 1 columns right of it, in
    (t2, k, s, C) order with C in ``itertools.combinations`` order.
    """
    rows = np.array([(t2, s, k, t2) + rest + (0,) * (q // 3 - k)
                     for t2 in range(2, q) for k in range(1, min(t2 // 2, q - t2) + 1)
                     for s in range(k, t2 - k + 1)
                     for rest in itertools.combinations(range(t2 + 1, q), k - 1)],
                    dtype=np.intp).reshape(-1, 3 + q // 3)
    return _read_only(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3:])


def _start_caps(v, t2, s, k):
    """Cap on the value each start (t2[i], s[i], k[i]) can reach, plus slack.

    A start keeps A in [0, s), B in [s, t2) and C in [t2, q), so its value
    sum_{j in C} (sum_{i in A} v_ij - sum_{i in B} v_ij) is at most the sum
    of the k largest h_j over j >= t2, with h_j the sum of the k largest
    entries of v[:s, j] minus the sum of the k smallest of v[s:t2, j].  Per
    t2, one masked sort of v[t2:, :t2] over its splits s and cumulative sums
    give h for every (s, k).  Row j of v stands for column j: v is symmetric
    bit for bit (``StepGraphon`` stores (v + v^T) / 2, and ``refine``'s
    ``np.kron`` and the reversal keep that), so both read the same numbers.

    The slack covers rounding.  n numbers of size at most M = max|v|, added
    in any order, land within n^2 M eps / 2 of their exact sum (to first
    order).  A start's value adds 2k^2 entries (k^2 per box): within
    2k^4 M eps.  Each h_j adds 2k entries: within 2k^2 M eps, so taking the
    k largest rounded h_j loses at most 2k^3 M eps, and adding them at most
    k^3 M eps more.  The slack 8k^4 M eps covers the three.
    """
    cap = np.empty(len(k))
    for tt in sorted(set(t2.tolist())):
        idx = np.flatnonzero(t2 == tt)
        splits = np.unique(s[idx])
        row = np.searchsorted(splits, s[idx])
        lo, hi = int(splits[0]), int(splits[-1])
        kk = k[idx]
        # ascending per split and column: top holds minus rows [0, s), bot rows [s, t2)
        top = np.where(np.arange(hi) < splits[:, None, None], -v[tt:, :hi], np.inf)
        bot = np.where(np.arange(lo, tt) < splits[:, None, None], np.inf, v[tt:, lo:tt])
        top.sort(axis=2)
        bot.sort(axis=2)
        km = int(kk.max())
        # -h for every (split, column, k); pairs off a side's size read +inf
        h = np.cumsum(top[..., :km] + bot[..., :km], axis=2)
        h = np.sort(h[row, :, kk - 1], axis=1).cumsum(axis=1)
        cap[idx] = -h[np.arange(len(idx)), kk - 1]
    return cap + 8.0 * k.astype(float) ** 4 * np.finfo(float).eps * np.abs(v).max()


def _term_max(v, q, table):
    """Search for the left term over the starts ``table(q)`` returns.

    Every start (for the heuristic, swept splits with consecutive C blocks,
    then seeded random restarts; for the exact solver, every C) is improved
    by alternating best responses; the first start in table order to reach
    the largest value wins.  While some start's cap (``_start_caps``)
    reaches the best value so far, the block size of the largest such cap
    runs a chunk of its largest-capped starts together, about 1 MB of
    gathered rows.  A start left over has a cap below that value, so it can
    neither beat nor tie it: the winner is the one the full search would
    find.
    """
    if q < 3:
        return None, None
    t2, s, k, c = table(q)
    cap = _start_caps(v, t2, s, k)
    left = np.ones(len(k), dtype=bool)
    lead = (-np.inf, len(k), None)   # the best value so far, its first start, its triple
    while True:
        idx = np.flatnonzero(left & (cap >= lead[0]))
        if not len(idx):
            break
        kk = int(k[idx[np.argmax(cap[idx])]])
        idx = idx[k[idx] == kk]
        chunk = np.sort(idx[np.argsort(-cap[idx], kind="stable")[:max(1, (1 << 17) // (kk * q))]])
        best, trip = _alternate(v, t2[chunk], s[chunk], c[chunk, :kk], kk)
        m = int(np.argmax(best))   # the chunk's first best start
        if (best[m], -chunk[m]) > (lead[0], -lead[1]):
            lead = best[m], int(chunk[m]), trip[:, m]
        left[chunk] = False
    best_trip = tuple(tuple(int(i) for i in part) for part in lead[2])
    return _triple_value(v, *best_trip, q=q, right=False), best_trip


def deviation_heuristic(w: StepGraphon, refinement: int = 1,
                        restarts: int = 20, seed: int = 0) -> DeviationCertificate:
    """Lower bound on the exact deviation; same certificate shape.

    Sweeps a lattice of split boundaries (capped at 24 positions per axis on
    large grids, exhaustive below that), doubling block sizes, improving each
    start by alternating best responses; plus seeded random restarts.
    Deterministic for a given seed.  Never exceeds the exact value.
    """
    r = _whole_number(refinement, 1, "refinement must be >= 1")
    restarts = _whole_number(restarts, 0, "restarts must be >= 0")
    rng = _rng(seed)
    return _certificate(w, r, "heuristic", lambda q: _start_table(q, restarts, rng))
