"""Lower-right window infimum: an oracle for the tests.

The band diagnostics of ``compute_regions`` promise that a pixel below the
top level has a window average at most one level up; ``lr_inf`` computes the
smallest such average exactly, so the tests can check that promise.
"""

import numpy as np

from robinson_lab import StepGraphon
from robinson_lab.approx import GUARD, _extreme_side_vectors, _knap_fill_batch


def lr_inf(w: StepGraphon, x: float, y: float, alpha: float, mode: str = "exact") -> float:
    """Lower-right window infimum at (x, y): inf of the average of w over
    S x T with S <= T, both inside [x, y], |S| = |T| = alpha.  Returns +inf
    when y - x < 2*alpha (no room).

    The split cell shared by S and T couples the two sides (their portions
    of that cell may not overlap); candidates enumerate every split cell and
    every boundary split.  Values never undershoot the heuristic mode.
    """
    if not (0 <= x <= y <= 1):
        raise ValueError("need 0 <= x <= y <= 1")
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    if y - x < 2 * alpha - GUARD:
        return np.inf
    n = w.n
    v = w.values
    cells = np.arange(n)
    exact = mode == "exact"
    if mode not in ("exact", "heuristic"):
        raise ValueError("mode must be exact or heuristic")

    def availability_between(lo, hi):
        return np.clip(np.minimum((cells + 1) / n, hi) - np.maximum(cells / n, lo),
                       0.0, 1.0 / n)

    best = np.inf
    lo_cell = int(np.floor(x * n))
    hi_cell = min(int(np.floor(y * n)), n - 1)
    # candidate split positions: every cell boundary in [x, y] and, for each
    # cell, a coupled split inside it
    for c in range(lo_cell, hi_cell + 1):
        for split_kind in ("boundary", "interior"):
            if split_kind == "boundary":
                sp = max(x, c / n)
                a = availability_between(x, sp)
                b = availability_between(sp, y)
                couple = None
            else:
                a = availability_between(x, min((c + 1) / n, y))
                b = availability_between(max(c / n, x), y)
                couple = c
            if a.sum() < alpha - GUARD or b.sum() < alpha - GUARD:
                continue
            if exact:
                s_mat = _extreme_side_vectors(a, alpha)
                if not len(s_mat):
                    continue
                caps = np.broadcast_to(b, (s_mat.shape[0], n)).copy()
                if couple is not None:
                    room = availability_between(x, y)[couple]
                    caps[:, couple] = np.clip(room - s_mat[:, couple], 0.0, caps[:, couple])
                bad = caps.sum(axis=1) < alpha - GUARD
                scores = s_mat @ v
                resp = _knap_fill_batch(scores, caps, alpha, minimize=True)
                vals = np.einsum("ij,ij->i", scores, resp)
                if np.any(~bad):
                    best = min(best, float(vals[~bad].min()))
            else:
                idx = np.arange(n, dtype=np.float64)[None, :]
                for order, minimize in ((idx, True), (idx, False)):
                    s = _knap_fill_batch(order, a[None, :], alpha, minimize=minimize)
                    caps = b[None, :].copy()
                    if couple is not None:
                        room = availability_between(x, y)[couple]
                        caps[0, couple] = np.clip(room - s[0, couple], 0.0, caps[0, couple])
                    if caps.sum() < alpha - GUARD:
                        continue
                    t = _knap_fill_batch(s @ v, caps, alpha, minimize=True)
                    for _ in range(40):
                        s2 = _knap_fill_batch(t @ v, a[None, :], alpha, minimize=True)
                        if couple is not None:
                            room = availability_between(x, y)[couple]
                            over = s2[0, couple] + t[0, couple] - room
                            if over > 0:
                                s2[0, couple] -= min(over, s2[0, couple])
                        new_caps = b[None, :].copy()
                        if couple is not None:
                            room = availability_between(x, y)[couple]
                            new_caps[0, couple] = np.clip(room - s2[0, couple], 0.0,
                                                          new_caps[0, couple])
                        t2 = _knap_fill_batch(s2 @ v, new_caps, alpha, minimize=True)
                        if np.allclose(t2, t) and np.allclose(s2, s):
                            break
                        s, t = s2, t2
                    if abs(s.sum() - alpha) <= 1e-9 and abs(t.sum() - alpha) <= 1e-9:
                        best = min(best, float(np.einsum("ij,ij->i", s @ v, t)[0]))
    return best / (alpha * alpha) if np.isfinite(best) else np.inf
