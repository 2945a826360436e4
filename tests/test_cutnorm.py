"""Cut norm solvers against a full (S, T) enumeration oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from robinson_lab import (
    CellSet,
    StepGraphon,
    cut_norm,
    cut_norm_exact,
    cut_norm_local_search,
    refine,
)
from robinson_lab import cutnorm as cutnorm_module
from robinson_lab.cutnorm import CutNormResult

WITNESS_TOL = 1e-12


def oracle_cut_norm(v):
    """max over ALL pairs of cell subsets of |sum_{S x T} v| / n^2.

    Independent of the solver: materialises the whole 2^n x 2^n table.
    Fine for n <= 10.
    """
    n = v.shape[0]
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    table = bits @ v @ bits.T
    return float(np.abs(table).max()) / (n * n)


def sym(rng, n, lo=-1.0, hi=1.0):
    m = rng.uniform(lo, hi, (n, n))
    return StepGraphon(0.5 * (m + m.T))


def test_sign_pattern_example():
    r = cut_norm_exact(StepGraphon([[1.0, -1.0], [-1.0, 1.0]]))
    assert r.value == 0.25
    assert r.witness_s.indices == (0,)
    assert r.witness_t.indices == (0,)
    assert r.exact and r.mode == "exact"


@pytest.mark.parametrize("c", [0.5, -2.0, 0.0])
def test_constant_example(c):
    n = 3
    r = cut_norm_exact(StepGraphon(np.full((n, n), c)))
    assert r.value == pytest.approx(abs(c), abs=1e-15)
    if c != 0.0:
        assert r.witness_s.indices == tuple(range(n))
        assert r.witness_t.indices == tuple(range(n))


def test_exact_matches_oracle():
    rng = np.random.Generator(np.random.Philox(42))
    for _ in range(60):
        n = int(rng.integers(1, 9))
        w = sym(rng, n, -3, 3)
        r = cut_norm_exact(w)
        assert r.value == pytest.approx(oracle_cut_norm(w.values), abs=1e-12)


def test_witness_reproduces_value():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(40):
        w = sym(rng, int(rng.integers(2, 13)))
        for r in (cut_norm_exact(w), cut_norm_local_search(w, restarts=10, seed=1)):
            assert abs(r.box_integral(w) - r.value) <= WITNESS_TOL


@seed(21)
@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_negation_symmetry(n, s):
    rng = np.random.Generator(np.random.Philox(s))
    w = sym(rng, n)
    assert cut_norm_exact(w).value == pytest.approx(
        cut_norm_exact(-1.0 * w).value, abs=1e-12)


def test_refinement_invariance():
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(20):
        w = sym(rng, int(rng.integers(2, 11)))
        a = cut_norm_exact(w).value
        b = cut_norm_exact(refine(w, 2)).value
        assert a == pytest.approx(b, abs=1e-9)


def test_local_search_is_a_valid_lower_bound():
    rng = np.random.Generator(np.random.Philox(123))
    for _ in range(60):
        w = sym(rng, int(rng.integers(2, 13)), -2, 2)
        exact = cut_norm_exact(w).value
        ls = cut_norm_local_search(w, restarts=8, seed=int(rng.integers(1 << 30)))
        assert ls.value <= exact + WITNESS_TOL
        assert not ls.exact and ls.mode == "localsearch"


def test_local_search_deterministic_per_seed():
    rng = np.random.Generator(np.random.Philox(9))
    w = sym(rng, 20)
    a = cut_norm_local_search(w, restarts=30, seed=7)
    b = cut_norm_local_search(w, restarts=30, seed=7)
    assert (a.value, a.witness_s.indices, a.witness_t.indices) == \
           (b.value, b.witness_s.indices, b.witness_t.indices)


def test_dispatcher_routing():
    rng = np.random.Generator(np.random.Philox(31))
    small = sym(rng, 12)
    d = cut_norm(small)
    e = cut_norm_exact(small)
    assert d.mode == "exact"
    assert d.value == e.value
    assert d.witness_s.indices == e.witness_s.indices
    assert d.witness_t.indices == e.witness_t.indices

    big = sym(rng, 18)
    assert cut_norm(big).mode == "localsearch"
    assert cut_norm(big, cap=18).mode == "exact"


def test_exact_cap_enforced():
    w = StepGraphon(np.zeros((25, 25)))
    with pytest.raises(ValueError):
        cut_norm_exact(w)
    with pytest.raises(ValueError):
        cut_norm_local_search(StepGraphon(np.zeros((3, 3))), restarts=0)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        cut_norm(StepGraphon(np.zeros((3, 3))), restarts=0)   # checked before enumerating


# cut_norm_exact on sym(Philox(n), n), and at n = 17 also on its reversal,
# whose witness S holds cell 16 and so lies past the first 2^16 subsets:
# (n, reversed, value hex, S, T)
EXACT_PINS = [
    (16, False, '0x1.e695a825e30acp-5', (1, 3, 4, 6, 7, 8, 10, 11, 12),
     (1, 2, 3, 4, 6, 7, 8, 10, 11, 14)),
    (17, False, '0x1.f20947cc5e2ecp-5', (0, 1, 2, 8, 9, 10, 12, 13, 14, 15),
     (0, 1, 2, 4, 8, 9, 10, 12, 13, 14, 15, 16)),
    (17, True, '0x1.f20947cc5e2ecp-5', (1, 2, 3, 4, 6, 7, 8, 14, 15, 16),
     (0, 1, 2, 3, 4, 6, 7, 8, 12, 14, 15, 16)),
]


@pytest.mark.parametrize("n, flip, value, s_idx, t_idx", EXACT_PINS,
                         ids=["n16", "n17", "n17-reversed"])
def test_exact_pinned_on_a_kernel_and_its_reversal(n, flip, value, s_idx, t_idx):
    v = sym(np.random.Generator(np.random.Philox(n)), n).values
    r = cut_norm_exact(StepGraphon(v[::-1, ::-1] if flip else v))
    assert r.value.hex() == value
    assert (r.witness_s.indices, r.witness_t.indices) == (s_idx, t_idx)


def test_dispatcher_falls_back_above_the_hard_cap():
    w = sym(np.random.Generator(np.random.Philox(26)), 26)
    r = cut_norm(w, cap=30)
    assert r.mode == "localsearch" and not r.exact
    assert r.value == cut_norm_local_search(w).value


def _mask_bits(masks, n):
    return ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)


def reference_cut_norm_exact(w):
    """The two-pass enumeration: chunk maxima first, then a rescan of the
    near-optimal chunks (the last chunk kept between passes).  Its 0/1 rows
    come from int64 shifts and its row sums from ``np.where``."""
    n = w.n
    v = w.values
    total = 1 << n
    chunk = 1 << min(cutnorm_module._CHUNK_BITS, n)

    def scan(lo):
        masks = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        c = _mask_bits(masks, n) @ v
        pos = np.where(c > 0, c, 0.0).sum(axis=1)
        neg = np.where(c < 0, -c, 0.0).sum(axis=1)
        return masks, c, pos, neg, np.maximum(pos, neg)

    chunk_best = []
    for lo in range(0, total, chunk):
        last = scan(lo)
        chunk_best.append(float(last[4].max()))
    best_raw = max(chunk_best)

    best = None
    slack = 1e-9 * max(1.0, abs(best_raw))
    for ci, lo in enumerate(range(0, total, chunk)):
        if chunk_best[ci] < best_raw - slack:
            continue
        masks, c, pos, neg, top = last if lo + chunk >= total else scan(lo)
        for row in np.flatnonzero(top >= best_raw - slack):
            mask = int(masks[row])
            s_idx = np.flatnonzero((mask >> np.arange(n)) & 1)
            for sign, branch in ((1.0, pos[row]), (-1.0, neg[row])):
                if branch < best_raw - slack:
                    continue
                t_idx = np.flatnonzero(sign * c[row] > 0)
                val = abs(cutnorm_module._box_value(v, s_idx, t_idx, n))
                t_mask = int(sum(1 << int(j) for j in t_idx))
                key = (-val, mask, t_mask)
                if best is None or key < best[0]:
                    best = (key, s_idx, t_idx)
    (neg_val, _, _), s_idx, t_idx = best
    return CutNormResult(value=-neg_val,
                         witness_s=CellSet(n, tuple(int(i) for i in s_idx)),
                         witness_t=CellSet(n, tuple(int(i) for i in t_idx)),
                         mode="exact", exact=True)


def tie_heavy(rng, n):
    """{-1, 0, 1}, constant and Toeplitz kernels, and a random one with
    exactly zero columns: many subsets tie, and many column sums are 0."""
    m = np.triu(rng.integers(-1, 2, (n, n)).astype(float))
    i = np.arange(n)
    z = sym(rng, n).values.copy()
    z[:, i % 3 == 1] = 0.0
    z[i % 3 == 1, :] = 0.0
    return [m + np.triu(m, 1).T, np.full((n, n), 0.7),
            np.maximum(0.0, 1.0 - abs(i[:, None] - i[None, :]) / 3.0) - 0.3, z]


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_one_scan_matches_two_pass_reference_on_several_chunks(n):
    rng = np.random.Generator(np.random.Philox(100 + n))
    v = sym(rng, n).values
    for m in [v, v[::-1, ::-1]] + (tie_heavy(rng, n) if n <= 18 else []):
        w = StepGraphon(m)
        assert repr(cut_norm_exact(w)) == repr(reference_cut_norm_exact(w))


def test_one_scan_matches_two_pass_reference_with_small_chunks(monkeypatch):
    monkeypatch.setattr(cutnorm_module, "_CHUNK_BITS", 3)
    rng = np.random.Generator(np.random.Philox(77))
    for n in range(1, 13):
        v = sym(rng, n).values
        for m in [v, v[::-1, ::-1]] + tie_heavy(rng, n):
            w = StepGraphon(m)
            assert repr(cut_norm_exact(w)) == repr(reference_cut_norm_exact(w))


def test_chunked_products_give_every_row_the_same_bits():
    # the scan's value and witness rest on this: a row of bits @ v is the same
    # in a 2^16-row product as in a 2^12-row one
    rng = np.random.Generator(np.random.Philox(2024))
    for n in range(1, 21):
        v = sym(rng, n).values
        for lo in range(0, 1 << n, 1 << 16):
            masks = np.arange(lo, min(lo + (1 << 16), 1 << n), dtype=np.int64)
            bits = _mask_bits(masks, n)
            whole = bits @ v
            for sub in range(0, len(masks), 1 << 12):
                part = bits[sub:sub + (1 << 12)] @ v
                assert np.array_equal(part, whole[sub:sub + (1 << 12)]), (n, lo + sub)


@pytest.mark.parametrize("n", [16, 20])
def test_exact_scan_allocates_little(n):
    w = sym(np.random.Generator(np.random.Philox(n)), n)
    tracemalloc.start()
    try:
        cut_norm_exact(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def reference_cut_norm_local_search(w, restarts=50, seed=0):
    """The two-pass local search: one alternation per sign, the + sign's
    restarts drawn first, and the - sign's best taken only when it beats the
    + sign's by more than 1e-15.  Returns the result and both signs' best raw
    values."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = w.n
    best, raws = None, []
    for v in (w.values, -w.values):
        s = (rng.random((restarts, n)) < 0.5).astype(np.float64)
        c = s @ v
        for _ in range(200):
            t = (c > 0).astype(np.float64)
            s_new = (t @ v > 0).astype(np.float64)
            if np.array_equal(s_new, s):
                break
            s = s_new
            c = s @ v
        t = (c > 0).astype(np.float64)
        val = np.einsum("ij,ij->i", c, t)
        ridx = int(np.argmax(val))
        cand = (float(val[ridx]), tuple(int(i) for i in np.flatnonzero(s[ridx])),
                tuple(int(j) for j in np.flatnonzero(t[ridx])))
        raws.append(cand[0])
        if best is None or cand[0] > best[0] + 1e-15:
            best = cand
    _, s_idx, t_idx = best
    value = abs(cutnorm_module._box_value(w.values, np.asarray(s_idx, dtype=np.intp),
                                          np.asarray(t_idx, dtype=np.intp), n))
    return CutNormResult(value=value, witness_s=CellSet(n, s_idx),
                         witness_t=CellSet(n, t_idx), mode="localsearch", exact=False), raws


def four_kinds(rng, n):
    """Uniform, one-decimal, five-valued and centred kernels."""
    u = sym(rng, n).values
    f = np.triu(rng.integers(-2, 3, (n, n)).astype(float))
    c = sym(rng, n, 0.0, 2.0).values
    return [u, np.round(u, 1), f + np.triu(f, 1).T, c - c.mean()]


def test_local_search_matches_two_pass_reference():
    rng = np.random.Generator(np.random.Philox(2026))
    for _ in range(130):
        n, restarts, s = int(rng.integers(2, 48)), int(rng.integers(1, 60)), int(rng.integers(1 << 20))
        for m in four_kinds(rng, n):
            w = StepGraphon(m)
            r = cut_norm_local_search(w, restarts=restarts, seed=s)
            ref, (pos, neg) = reference_cut_norm_local_search(w, restarts, s)
            # the one search may differ only where the - sign wins by at most 1e-15
            assert not 0 < neg - pos <= 1e-15, (n, restarts, s)
            assert (r.value.hex(), r.witness_s, r.witness_t) == \
                   (ref.value.hex(), ref.witness_s, ref.witness_t)


# cut_norm_local_search(sym(Philox(n), n)) at the default restarts and seed:
# (n, value hex, S, T)
LOCAL_SEARCH_PINS = [
    (20, '0x1.a0fb65209a6e4p-5', (0, 3, 7, 8, 9, 10, 11, 12, 13, 16, 18),
     (0, 1, 2, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 18)),
    (24, '0x1.80ef2b0cf22c4p-5', (2, 3, 4, 5, 7, 8, 9, 10, 12, 16, 17, 18, 19, 20, 23),
     (2, 3, 4, 5, 7, 8, 9, 10, 12, 16, 17, 18, 19, 20, 23)),
    (40, '0x1.429e72eff738bp-5',
     (0, 1, 2, 4, 7, 8, 10, 11, 12, 13, 15, 16, 17, 19, 21, 22, 24, 25, 27, 28, 30, 31,
      32, 33, 35, 36, 37, 38, 39),
     (0, 1, 4, 7, 8, 10, 11, 13, 16, 17, 18, 19, 23, 24, 27, 28, 31, 32, 33, 34, 35, 37,
      38, 39)),
]


@pytest.mark.parametrize("n, value, s_idx, t_idx", LOCAL_SEARCH_PINS, ids=["n20", "n24", "n40"])
def test_local_search_pinned(n, value, s_idx, t_idx):
    r = cut_norm_local_search(sym(np.random.Generator(np.random.Philox(n)), n))
    assert r.value.hex() == value
    assert (r.witness_s.indices, r.witness_t.indices) == (s_idx, t_idx)


@pytest.mark.parametrize("c", [1e-18, 1e-12, 1e6])
def test_both_solvers_are_homogeneous(c):
    # a planted negative block makes the - sign win with S = T, so no
    # transposed box T x S ties with the best one
    rng = np.random.Generator(np.random.Philox(606))
    for solve, n in ((cut_norm_exact, 10), (cut_norm_local_search, 20)):
        v = sym(rng, n, -0.3, 0.3).values.copy()
        v[: n // 2, : n // 2] -= 1.0
        a, b = solve(StepGraphon(v)), solve(StepGraphon(c * v))
        assert a.witness_s == a.witness_t
        assert b.value == pytest.approx(c * a.value, rel=1e-12, abs=0.0)
        assert (b.witness_s, b.witness_t) == (a.witness_s, a.witness_t)


@pytest.mark.parametrize("scale, calls", [(1.0, 3), (1e-12, 3), (0.0, 0)],
                         ids=["w", "1e-12w", "zero"])
def test_exact_refines_the_same_rows_at_every_scale(monkeypatch, scale, calls):
    count = []
    box_value = cutnorm_module._box_value
    monkeypatch.setattr(cutnorm_module, "_box_value",
                        lambda *a: count.append(1) or box_value(*a))
    w = sym(np.random.Generator(np.random.Philox(16)), 16)
    cut_norm_exact(StepGraphon(scale * w.values))
    assert len(count) == calls
