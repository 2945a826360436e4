"""Robinson deviation score.

The oracle enumerates every ordered triple directly with itertools, so it
shares no code with the stratified solver it checks.
"""

import itertools
import math

import numpy as np
import pytest

from robinson_lab import (
    CellSet,
    StepGraphon,
    cut_norm_exact,
    deviation_exact,
    deviation_heuristic,
    lp_norm,
    refine,
    smooth_exp,
    toeplitz_decay,
)
from robinson_lab import deviation as deviation_module
from robinson_lab.deviation import (
    _SWEEP_CAP,
    EXACT_DEVIATION_CAP,
    _exact_table,
    _pick,
    _start_caps,
    _start_table,
    _triple_value,
)

ORACLE_TOL = 1e-12
N3_VALUES = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


def oracle_deviation(v, q):
    """Direct max over all ordered equal-size triples, floored per term."""
    t_left = t_right = 0.0
    for k in range(1, q // 3 + 1):
        for a in itertools.combinations(range(q), k):
            for b in itertools.combinations(range(a[-1] + 1, q), k):
                for c in itertools.combinations(range(b[-1] + 1, q), k):
                    far = sum(v[i, l] for i in a for l in c)
                    t_left = max(t_left, far - sum(v[j, l] for j in b for l in c))
                    t_right = max(t_right, far - sum(v[i, j] for i in a for j in b))
    return (0.5 * t_left + 0.5 * t_right) / (q * q)


def sym(rng, n, lo=-1.0, hi=1.0):
    m = rng.uniform(lo, hi, (n, n))
    return StepGraphon(0.5 * (m + m.T))


# ---------------------------------------------------------------------------
# deviation score

def test_pinned_small_example():
    w = StepGraphon(N3_VALUES)
    cert = deviation_exact(w, 1)
    assert cert.value == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert tuple(s.indices for s in cert.witness_left) == ((0,), (1,), (2,))
    assert tuple(s.indices for s in cert.witness_right) == ((0,), (1,), (2,))
    assert cert.mode == "exact" and cert.refinement == 1

    est = deviation_heuristic(w, 1, restarts=20, seed=0)
    assert est.value == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert est.mode == "heuristic"


def test_robinson_inputs_give_exact_zero():
    candidates = [
        toeplitz_decay(6, seed=1),
        toeplitz_decay(7, seed=2),
        smooth_exp(5),
        StepGraphon(np.full((4, 4), 0.7)),
        StepGraphon(np.zeros((3, 3))),
    ]
    for w in candidates:
        for r in (1, 2):
            if w.n * r > EXACT_DEVIATION_CAP:
                continue
            assert deviation_exact(w, r).value == 0.0
            assert deviation_heuristic(w, r, seed=3).value == 0.0


def test_matches_triple_enumeration_oracle():
    rng = np.random.Generator(np.random.Philox(77))
    for trial in range(40):
        n = int(rng.integers(3, 7))
        w = sym(rng, n, -2, 2)
        cert = deviation_exact(w, 1)
        assert cert.value == pytest.approx(oracle_deviation(w.values, n), abs=ORACLE_TOL)
    # refinement: duplicated rows/columns, checked on the refined grid
    w = sym(rng, 3)
    cert = deviation_exact(w, 2)
    assert cert.value == pytest.approx(
        oracle_deviation(np.kron(w.values, np.ones((2, 2))), 6), abs=ORACLE_TOL)


def test_certificate_structure_and_recompute():
    rng = np.random.Generator(np.random.Philox(8))
    for trial in range(30):
        n = int(rng.integers(3, 8))
        w = sym(rng, n, -1, 3)
        for cert in (deviation_exact(w, 1),
                     deviation_heuristic(w, 1, seed=trial)):
            assert cert.term_left >= 0.0 and cert.term_right >= 0.0
            assert cert.value == 0.5 * cert.term_left + 0.5 * cert.term_right
            for wit in (cert.witness_left, cert.witness_right):
                if wit is None:
                    continue
                a, b, c = wit
                assert len(a.indices) == len(b.indices) == len(c.indices) >= 1
                assert a.indices[-1] < b.indices[0] <= b.indices[-1] < c.indices[0]
                assert a.resolution == w.n
            assert abs(cert.recompute(w) - cert.value) <= 1e-12


def test_negative_terms_drop_witnesses():
    cert = deviation_exact(smooth_exp(5), 1)   # strict decay: both raw maxima < 0
    assert cert.value == 0.0
    assert cert.witness_left is None and cert.witness_right is None
    assert cert.recompute(smooth_exp(5)) == 0.0


def test_cap_and_validation():
    w = StepGraphon(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        deviation_exact(w, 2)            # 16 cells > cap
    with pytest.raises(ValueError):
        deviation_exact(w, 0)
    with pytest.raises(ValueError):
        deviation_heuristic(w, 0)
    with pytest.raises(ValueError, match="restarts must be >= 0"):
        deviation_heuristic(w, 1, restarts=-3)
    deviation_heuristic(w, 2)            # heuristic has no cap


def test_heuristic_below_three_cells_has_no_triple():
    cert = deviation_heuristic(StepGraphon([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert (cert.value, cert.term_left, cert.term_right) == (0.0, 0.0, 0.0)
    assert cert.witness_left is None and cert.witness_right is None


def test_cut_norm_continuity():
    rng = np.random.Generator(np.random.Philox(55))
    for _ in range(60):
        n = int(rng.integers(3, 9))
        w, u = sym(rng, n), sym(rng, n)
        lhs = abs(deviation_exact(w, 1).value - deviation_exact(u, 1).value)
        assert lhs <= 2.0 * cut_norm_exact(w - u).value + 1e-9


def test_subadditivity():
    rng = np.random.Generator(np.random.Philox(56))
    for _ in range(60):
        n = int(rng.integers(3, 9))
        w, u = sym(rng, n), sym(rng, n)
        both = deviation_exact(w + u, 1).value
        assert both <= deviation_exact(w, 1).value + deviation_exact(u, 1).value + 1e-9


def test_norm_bound():
    rng = np.random.Generator(np.random.Philox(57))
    for _ in range(60):
        n = int(rng.integers(3, 9))
        w = sym(rng, n, -3, 3)
        lam = deviation_exact(w, 1).value
        for p in (1, 2, np.inf):
            assert lam <= lp_norm(w, p) + 1e-9


def test_positive_homogeneity():
    rng = np.random.Generator(np.random.Philox(58))
    for c in (0.25, 2.0, 17.0):
        for _ in range(20):
            n = int(rng.integers(3, 8))
            w = sym(rng, n)
            assert deviation_exact(c * w, 1).value == pytest.approx(
                c * deviation_exact(w, 1).value, abs=1e-9)


def test_monotone_in_refinement():
    rng = np.random.Generator(np.random.Philox(59))
    for _ in range(10):
        w = sym(rng, 3, -1, 1)
        v1 = deviation_exact(w, 1).value
        v2 = deviation_exact(w, 2).value
        v4 = deviation_exact(w, 4).value
        assert v2 >= v1 - 1e-12
        assert v4 >= v2 - 1e-12
    for _ in range(10):
        w = sym(rng, 5, -1, 1)
        assert deviation_exact(w, 2).value >= deviation_exact(w, 1).value - 1e-12


def test_heuristic_never_exceeds_exact():
    rng = np.random.Generator(np.random.Philox(60))
    for trial in range(40):
        n = int(rng.integers(3, 8))
        w = sym(rng, n, -2, 2)
        exact = deviation_exact(w, 1).value
        est = deviation_heuristic(w, 1, restarts=10, seed=trial)
        assert est.value <= exact + 1e-12
        again = deviation_heuristic(w, 1, restarts=10, seed=trial)
        assert est.value == again.value


def _noisy_toeplitz(n):
    rng = np.random.Generator(np.random.Philox(n))
    m = rng.uniform(-0.2, 0.2, (n, n))
    return StepGraphon(toeplitz_decay(n, seed=n).values + 0.5 * (m + m.T))


# deviation_heuristic(w, 2, restarts=50, seed=0) on _noisy_toeplitz(n):
# (n, value, term_left, term_right, witness_left, witness_right), floats as hex
HEURISTIC_PINS = [
    (12, '0x1.bd6bb1ff59290p-10', '0x1.db0489b3661d9p-10', '0x1.9fd2da4b4c347p-10',
     ((10, 11), (12, 13), (22, 23)),
     ((4, 5), (6, 7), (8, 9))),
    (20, '0x1.80c507f97044ep-11', '0x1.85407cbed7c89p-11', '0x1.7c49933408c14p-11',
     ((14, 16, 17), (18, 19, 20), (34, 35, 36)),
     ((18, 19), (28, 29), (30, 31))),
    (32, '0x1.4ba9519e43f02p-11', '0x1.6b63acc176669p-11', '0x1.2beef67b1179ap-11',
     ((2, 3, 8, 9, 10, 11), (12, 13, 14, 15, 16, 17), (20, 21, 22, 23, 46, 47)),
     ((26, 27, 31, 38, 39), (43, 44, 45, 48, 49), (50, 51, 52, 53, 57))),
    (40, '0x1.22493826e87bcp-11', '0x1.feed8d868a4c8p-12', '0x1.451ba98a8bd13p-11',
     ((12, 16, 17, 18, 19), (20, 21, 22, 23, 24), (25, 34, 35, 50, 51)),
     ((14, 15, 42, 43, 50, 51), (64, 65, 66, 67, 68, 69), (70, 71, 72, 73, 74, 75))),
]


@pytest.mark.parametrize("n, value, left, right, wit_left, wit_right", HEURISTIC_PINS,
                         ids=["n%d" % pin[0] for pin in HEURISTIC_PINS])
def test_heuristic_pinned_certificates(n, value, left, right, wit_left, wit_right):
    cert = deviation_heuristic(_noisy_toeplitz(n), 2, restarts=50, seed=0)
    assert (cert.value.hex(), cert.term_left.hex(), cert.term_right.hex()) == (value, left, right)
    assert tuple(s.indices for s in cert.witness_left) == wit_left
    assert tuple(s.indices for s in cert.witness_right) == wit_right


# ---------------------------------------------------------------------------
# lockstep heuristic search against a loop with no stop and the start list it replaced

def reference_alternate(v, t2, s, c, k):
    """Alternation with no stop rule: 30 rounds for every start, keeping the last."""
    cols = np.arange(v.shape[0])
    in_a = cols < s[:, None]
    in_b = ~in_a & (cols < t2[:, None])
    in_c = cols >= t2[:, None]
    for _ in range(30):
        f = v[c].sum(axis=1)
        a = _pick(np.where(in_a, -f, np.inf), k)
        b = _pick(np.where(in_b, f, np.inf), k)
        g = v[a].sum(axis=1) - v[b].sum(axis=1)
        c = _pick(np.where(in_c, -g, np.inf), k)
    return np.take_along_axis(g, c, axis=1).sum(axis=1), np.stack([a, b, c])


def reference_starts(q, restarts, rng):
    """The start list as (t2, s, C tuple), kept verbatim."""
    def _block_sizes(kmax):
        """Block sizes tried at one split: all up to 16, doublings plus kmax above."""
        if kmax <= 16:
            return list(range(1, kmax + 1))
        ks = [1 << e for e in range(kmax.bit_length())]
        return ks if ks[-1] == kmax else ks + [kmax]

    def lattice(lo, hi):   # up to _SWEEP_CAP integers in [lo, hi]
        if hi < lo:
            return []
        pts = np.unique(np.linspace(lo, hi, min(_SWEEP_CAP, hi - lo + 1)).round().astype(int))
        return [int(p) for p in pts]

    starts = [(t2, s, tuple(range(t2, t2 + k)))
              for t2 in lattice(2, q - 1) for s in lattice(1, t2 - 1)
              for k in _block_sizes(min(s, t2 - s, q - t2))]
    for _ in range(restarts):
        t2 = int(rng.integers(2, q))
        s = int(rng.integers(1, t2))
        k = int(rng.integers(1, min(s, t2 - s, q - t2) + 1))
        starts.append((t2, s, tuple(np.sort(rng.choice(np.arange(t2, q), size=k, replace=False)))))
    return starts


def reference_chunks(starts, q):
    """The block-size groups and chunks of the old search, in its order."""
    by_k = {}
    for i, (_, _, c0) in enumerate(starts):
        by_k.setdefault(len(c0), []).append(i)
    for k, idx in by_k.items():
        step = max(1, (1 << 17) // (k * q))
        for lo in range(0, len(idx), step):
            yield k, idx[lo:lo + step]


def reference_term_max(v, q, restarts, rng):
    """The old left-term search on the verbatim start list and loop."""
    if q < 3:
        return None, None
    starts = reference_starts(q, restarts, rng)
    values = np.empty(len(starts))
    leaders = {}
    for k, chunk in reference_chunks(starts, q):
        t2, s, c0 = (np.array(col) for col in zip(*(starts[i] for i in chunk)))
        best, trip = reference_alternate(v, t2, s, c0, k)
        values[chunk] = best
        m = int(np.argmax(best))
        leaders[chunk[m]] = tuple(tuple(int(i) for i in part[m]) for part in trip)
    best_trip = leaders[int(np.argmax(values))]
    return _triple_value(v, *best_trip, q=q, right=False), best_trip


def _search_inputs():
    """Random, five-valued (many ties) and noisy Toeplitz kernels at r = 1, 2, 3."""
    rng = np.random.Generator(np.random.Philox(606))
    for trial in range(18):
        n = int(rng.integers(3, 16))
        kind = trial % 3
        if kind == 0:
            m = rng.uniform(-1.0, 1.0, (n, n))
        elif kind == 1:
            m = rng.integers(0, 3, (n, n)).astype(float)
        else:
            m = toeplitz_decay(n, seed=trial).values + 0.3 * rng.uniform(-1.0, 1.0, (n, n))
        r = 1 + trial % 4 % 3
        v = np.kron(0.5 * (m + m.T), np.ones((r, r)))
        yield v, int(rng.integers(0, 40)), trial


def test_start_table_matches_the_reference_list():
    for q in list(range(3, 40)) + [47, 64, 90]:
        for restarts in (0, 1, 7, 50):
            rng_new = np.random.Generator(np.random.Philox(q + restarts))
            rng_ref = np.random.Generator(np.random.Philox(q + restarts))
            t2, s, k, c = _start_table(q, restarts, rng_new)
            ref = reference_starts(q, restarts, rng_ref)
            rows = [(int(t2[i]), int(s[i]), tuple(int(j) for j in c[i, :k[i]]))
                    for i in range(len(k))]
            assert rows == [(t, a, tuple(int(j) for j in c)) for t, a, c in ref]
            assert repr(rng_new.bit_generator.state) == repr(rng_ref.bit_generator.state)


def test_lockstep_loop_matches_the_reference(monkeypatch):
    live_new, live_ref = [], []
    plain_pick = _pick

    def counted(log):
        def pick(key, k):
            log.append(len(key))
            return plain_pick(key, k)
        return pick

    monkeypatch.setattr(deviation_module, "_pick", counted(live_new))
    monkeypatch.setitem(globals(), "_pick", counted(live_ref))
    fewer = one_row = 0
    for v, restarts, seed in _search_inputs():
        q = v.shape[0]
        for u in (v, v[::-1, ::-1]):
            starts = reference_starts(q, restarts, np.random.Generator(np.random.Philox(seed)))
            for k, chunk in reference_chunks(starts, q):
                t2, s, c0 = (np.array(col) for col in zip(*(starts[i] for i in chunk)))
                live_new.clear()
                live_ref.clear()
                best, trip = deviation_module._alternate(u, t2, s, c0, k)
                ref_best, ref_trip = reference_alternate(u, t2, s, c0, k)
                assert np.array_equal(best, ref_best)
                assert np.array_equal(trip, ref_trip)
                # three picks a round: the live rows of each round
                rounds_new, rounds_ref = live_new[::3], live_ref[::3]
                assert len(rounds_new) <= len(rounds_ref)
                assert all(a <= b for a, b in zip(rounds_new, rounds_ref))
                fewer += sum(rounds_new) < sum(rounds_ref)
                one_row += any(a == 1 < b for a, b in zip(rounds_new, rounds_ref))
    assert fewer and one_row   # fixed points were dropped, down to one-row batches


def test_a_start_stops_only_at_its_fixed_point():
    # five-valued kernel, many ties: the second round keeps the value 1.0 with
    # a new C, and only the third, a fixed point, reaches 1.5
    v = next(itertools.islice(_search_inputs(), 1, None))[0][::-1, ::-1]
    best, trip = deviation_module._alternate(v, np.array([13]), np.array([12]),
                                             np.array([[13]]), 1)
    assert best.tolist() == [1.5]
    assert trip[:, 0].tolist() == [[4], [12], [20]]


def _large_inputs():
    """Where the caps prune most: noisy Toeplitz at q = 64 and 80 (r = 2),
    and a three-valued kernel at q = 48, with many tied values and caps."""
    for n in (32, 40):
        yield refine(_noisy_toeplitz(n), 2).values, 50, 0
    m = np.random.Generator(np.random.Philox(48)).integers(0, 3, (24, 24)).astype(float)
    yield np.kron(np.triu(m) + np.triu(m, 1).T, np.ones((2, 2))), 20, 5


def test_heuristic_search_matches_the_reference():
    # restart-heavy and restart-free searches: capped restarts against running them all
    extra = [(refine(_noisy_toeplitz(32), 2).values, 200, 3),
             (refine(_noisy_toeplitz(40), 2).values, 0, 0)]
    for v, restarts, seed in itertools.chain(_search_inputs(), _large_inputs(), extra):
        q = v.shape[0]
        for u in (v, v[::-1, ::-1]):
            rng_new = np.random.Generator(np.random.Philox(seed))
            rng_ref = np.random.Generator(np.random.Philox(seed))
            value, trip = deviation_module._term_max(
                u, q, lambda q: _start_table(q, restarts, rng_new))
            ref_value, ref_trip = reference_term_max(u, q, restarts, rng_ref)
            assert (value, trip) == (ref_value, ref_trip)
            assert repr(rng_new.bit_generator.state) == repr(rng_ref.bit_generator.state)


# ---------------------------------------------------------------------------
# the caps that prune the heuristic search

def _cap_inputs():
    """The search inputs and their reversals, plus rounded-decimal kernels:
    there a value and its cap, equal in exact arithmetic, can round apart,
    and the value then passes the cap without its slack."""
    inputs = list(_search_inputs()) + list(_large_inputs())
    rng = np.random.Generator(np.random.Philox(909))
    for trial in range(12):
        q = int(rng.integers(9, 30))
        m = np.round(rng.uniform(0.0, 1.0, (q, q)), 1 + trial % 2)
        inputs.append((StepGraphon(0.5 * (m + m.T)).values, 10, trial))
    for v, restarts, seed in inputs:
        yield v, restarts, seed
        yield v[::-1, ::-1], restarts, seed


def test_every_start_stays_under_its_cap():
    for v, restarts, seed in _cap_inputs():
        q = v.shape[0]
        t2, s, k, c = _start_table(q, restarts, np.random.Generator(np.random.Philox(seed)))
        cap = _start_caps(v, t2, s, k)   # swept starts and restarts alike
        for kk in np.unique(k).tolist():
            idx = np.flatnonzero(k == kk)
            best, _ = deviation_module._alternate(v, t2[idx], s[idx], c[idx, :kk], kk)
            assert np.all(best <= cap[idx])


def reference_start_caps(v, t2, s, k):
    """The caps read off the columns of v, v[:t2, t2:] transposed."""
    cap = np.empty(len(k))
    for tt in sorted(set(t2.tolist())):
        idx = np.flatnonzero(t2 == tt)
        splits = np.unique(s[idx])
        row = np.searchsorted(splits, s[idx])
        lo, hi = int(splits[0]), int(splits[-1])
        kk = k[idx]
        block = v[:tt, tt:].T
        top = np.where(np.arange(hi) < splits[:, None, None], -block[:, :hi], np.inf)
        bot = np.where(np.arange(lo, tt) < splits[:, None, None], np.inf, block[:, lo:])
        top.sort(axis=2)
        bot.sort(axis=2)
        km = int(kk.max())
        h = np.cumsum(top[..., :km] + bot[..., :km], axis=2)
        h = np.sort(h[row, :, kk - 1], axis=1).cumsum(axis=1)
        cap[idx] = -h[np.arange(len(idx)), kk - 1]
    return cap + 8.0 * k.astype(float) ** 4 * np.finfo(float).eps * np.abs(v).max()


def test_caps_match_the_column_reference_bit_for_bit():
    # heuristic tables (restarts share (t2, s, k) with swept starts) and exact
    # tables (many starts share each (t2, s, k))
    for v, restarts, seed in _cap_inputs():
        q = v.shape[0]
        tables = [_start_table(q, restarts, np.random.Generator(np.random.Philox(seed)))]
        if q <= EXACT_DEVIATION_CAP:
            tables.append(_exact_table(q))
        for t2, s, k, _ in tables:
            assert _start_caps(v, t2, s, k).tobytes() == \
                reference_start_caps(v, t2, s, k).tobytes()


def test_start_tables_are_built_once_and_read_only():
    # the exact table once per q, the swept starts once for both terms of a call
    assert _exact_table(9) is _exact_table(9)
    assert not any(a.flags.writeable for a in _exact_table(9))
    swept = deviation_module._swept_starts
    swept.cache_clear()
    deviation_heuristic(_noisy_toeplitz(20), 2, restarts=5, seed=3)
    assert (swept.cache_info().misses, swept.cache_info().hits) == (1, 1)
    assert not any(a.flags.writeable for a in swept(40))


def test_the_caps_skip_most_starts_at_q80(monkeypatch):
    rows = []
    plain_alternate = deviation_module._alternate

    def counted(v, t2, s, c, k):
        rows.append(len(t2))
        return plain_alternate(v, t2, s, c, k)

    monkeypatch.setattr(deviation_module, "_alternate", counted)
    v = refine(_noisy_toeplitz(40), 2).values
    starts = len(_start_table(80, 50, np.random.Generator(np.random.Philox(0)))[2])
    for u in (v, v[::-1, ::-1]):
        rows.clear()
        rng = np.random.Generator(np.random.Philox(0))
        deviation_module._term_max(u, 80, lambda q: _start_table(q, 50, rng))
        assert 0 < sum(rows) < starts / 2


def test_the_caps_skip_most_restarts_at_q80(monkeypatch):
    runs = []
    plain_alternate = deviation_module._alternate

    def counted(v, t2, s, c, k):
        runs.extend(zip(t2.tolist(), s.tolist(), map(tuple, c.tolist())))
        return plain_alternate(v, t2, s, c, k)

    monkeypatch.setattr(deviation_module, "_alternate", counted)
    t2, s, k, c = _start_table(80, 50, np.random.Generator(np.random.Philox(0)))
    rows = [(int(t2[i]), int(s[i]), tuple(c[i, :k[i]].tolist())) for i in range(len(k))]
    restarts = set(rows[-50:])
    assert len(restarts - set(rows[:-50])) == 50   # each restart is told apart by its row
    v = refine(_noisy_toeplitz(40), 2).values
    for u in (v, v[::-1, ::-1]):
        runs.clear()
        rng = np.random.Generator(np.random.Philox(0))
        deviation_module._term_max(u, 80, lambda q: _start_table(q, 50, rng))
        assert sum(row in restarts for row in runs) < 25   # capped like the swept starts


def reference_triple_value(v, a_set, b_set, c_set, q, right):
    """The list-comprehension form of _triple_value."""
    a = a_set.indices if isinstance(a_set, CellSet) else tuple(a_set)
    b = b_set.indices if isinstance(b_set, CellSet) else tuple(b_set)
    c = c_set.indices if isinstance(c_set, CellSet) else tuple(c_set)
    if right:
        terms = [v[i, k] for i in a for k in c] + [-v[i, j] for i in a for j in b]
    else:
        terms = [v[i, k] for i in a for k in c] + [-v[j, k] for j in b for k in c]
    return math.fsum(terms) / (q * q)


def test_triple_value_matches_the_list_reference():
    rng = np.random.Generator(np.random.Philox(707))
    for trial in range(60):
        q = int(rng.integers(3, 20))
        m = rng.uniform(-1.0, 1.0, (q, q)) * 10.0 ** float(rng.integers(-3, 4))
        if trial % 2:
            m = rng.integers(0, 3, (q, q)).astype(float)     # many ties and zeros
        v = StepGraphon(0.5 * (m + m.T)).values
        k = int(rng.integers(1, q // 3 + 1))
        a, b, c = np.split(np.sort(rng.choice(q, size=3 * k, replace=False)), 3)
        sets = [tuple(int(i) for i in s) for s in (a, b, c)]
        if trial % 3 == 0:
            sets = [CellSet(q, s) for s in sets]
        for right in (False, True):
            assert repr(_triple_value(v, *sets, q=q, right=right)) == \
                repr(reference_triple_value(v, *sets, q=q, right=right))


def reference_term_max_exact(v, q):
    """The exact left term by a scan of every C and every split, in loops:
    for each C the best A and B are read off the per-row sums over C."""
    best_key = None
    best_info = None
    for t2 in range(2, q):
        tail = q - t2 - 1
        for k in range(1, t2 // 2 + 1):
            if k - 1 > tail:
                break
            combos = list(itertools.combinations(range(t2 + 1, q), k - 1))
            carr = np.asarray(combos, dtype=np.intp).reshape(len(combos), k - 1)
            f = np.repeat(v[t2, :t2][None, :], len(combos), axis=0)
            if k > 1:
                onehot = np.zeros((len(combos), tail), dtype=np.float64)
                onehot[np.arange(len(combos))[:, None], carr - (t2 + 1)] = 1.0
                f += onehot @ v[t2 + 1:, :t2]
            for s in range(k, t2 - k + 1):
                top_a = np.sort(np.partition(f[:, :s], s - k, axis=1)[:, s - k:],
                                axis=1).sum(axis=1)
                bot_b = np.sort(np.partition(f[:, s:t2], k - 1, axis=1)[:, :k],
                                axis=1).sum(axis=1)
                vals = top_a - bot_b
                m = int(np.argmax(vals))
                if best_key is None or vals[m] > best_key:
                    best_key = float(vals[m])
                    best_info = (t2, k, s, combos[m])
    if best_info is None:
        return None, None
    t2, k, s, combo = best_info
    c_set = (t2,) + combo
    f = v[list(c_set), :t2].sum(axis=0)
    a_set = tuple(sorted(int(i) for i in np.argsort(-f[:s], kind="stable")[:k]))
    b_set = tuple(sorted(int(i) + s for i in np.argsort(f[s:t2], kind="stable")[:k]))
    return _triple_value(v, a_set, b_set, c_set, q, right=False), (a_set, b_set, c_set)


def test_exact_search_matches_the_split_scan():
    # random, five-valued (ties), rounded and refined kernels up to q = 18
    rng = np.random.Generator(np.random.Philox(808))
    for trial in range(48):
        q = int(rng.integers(2, 19))
        kind = trial % 4
        if kind == 0:
            m = rng.uniform(-1.0, 1.0, (q, q))
        elif kind == 1:
            m = rng.integers(0, 3, (q, q)).astype(float)
        elif kind == 2:
            m = np.round(rng.uniform(0.0, 1.0, (q, q)), 1)
        else:
            h = (q + 1) // 2
            m = np.kron(rng.uniform(-1.0, 1.0, (h, h)), np.ones((2, 2)))[:q, :q]
        v = StepGraphon(0.5 * (m + m.T)).values
        for u in (v, v[::-1, ::-1]):
            value, trip = deviation_module._term_max(u, q, _exact_table)
            ref_value, ref_trip = reference_term_max_exact(u, q)
            if q < 3:
                assert (value, trip) == (ref_value, ref_trip) == (None, None)
                continue
            assert value.hex() == ref_value.hex()
            a, b, c = trip
            assert len(a) == len(b) == len(c) >= 1
            assert list(a + b + c) == sorted(set(a + b + c)) and c[-1] < q
            assert _triple_value(u, a, b, c, q=q, right=False) == value
            if kind == 0:   # no ties: the scan's witness
                assert trip == ref_trip


def test_exact_table_lists_every_start_in_order():
    for q in range(3, 16):
        t2, s, k, c = _exact_table(q)
        rows = [(int(t2[i]), int(k[i]), int(s[i]), tuple(c[i, :k[i]].tolist()))
                for i in range(len(k))]
        ref = []
        for tt in range(2, q):
            for kk in range(1, q):
                for ss in range(q):
                    if kk <= ss <= tt - kk:
                        for cc in itertools.combinations(range(tt, q), kk):
                            if cc[0] == tt:
                                ref.append((tt, kk, ss, cc))
        assert rows == ref
        assert c.shape == (len(k), q // 3) and not c[np.arange(q // 3) >= k[:, None]].any()
