"""Recovery pipeline: routing, constants, bounds, and report bookkeeping."""

import hashlib
import json
import math

import numpy as np
import pytest

from robinson_lab import (
    DeviationCertificate,
    StepGraphon,
    closed_form_robinson_ae,
    cumulative_envelope,
    cut_norm,
    cutoff,
    deviation_exact,
    deviation_heuristic,
    diagonal_band_integral,
    estimate_deviation,
    is_robinson,
    lp_norm,
    measured_cut_error,
    plant_violation,
    proposition_constants,
    recover,
    recover_bounded,
    refine,
    smooth_exp,
    theoretical_bound,
    toeplitz_decay,
)
from robinson_lab import deviation as deviation_module

N3 = StepGraphon(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

REPORT_KEYS = {
    "caseTaken", "p", "alpha", "normalizationScale", "M", "lambdaW",
    "lambdaWM", "lambdaMode", "theoreticalBound", "measuredError",
    "measuredErrorExact", "approxMode", "approxGrid", "robinsonValidated",
    "timings", "warning",
}


def fixed_certificate(value: float) -> DeviationCertificate:
    return DeviationCertificate(value=value, term_left=value, term_right=value,
                                witness_left=None, witness_right=None,
                                refinement=1, mode="heuristic")


# ---------------------------------------------------------------------------
# deviation estimator dispatch

def test_estimate_deviation_picks_the_largest_certified_refinement():
    w7 = toeplitz_decay(7, seed=1)          # 7 * 2 = 14 cells fits exactly
    cert = estimate_deviation(w7, refinement=2)
    assert cert.mode == "exact" and cert.refinement == 2
    assert cert.value == deviation_exact(w7, 2).value

    w10 = plant_violation(toeplitz_decay(10, seed=2), 0.2, seed=2)[0]
    cert = estimate_deviation(w10, refinement=2)     # 20 cells too many: r = 1
    assert cert.mode == "exact" and cert.refinement == 1
    assert cert.value == deviation_exact(w10, 1).value

    w16 = plant_violation(toeplitz_decay(16, seed=3), 0.2, seed=3)[0]
    cert = estimate_deviation(w16, refinement=2, restarts=50, seed=0)
    assert cert.mode == "heuristic" and cert.refinement == 2
    assert cert.value == deviation_heuristic(w16, 2, restarts=50, seed=0).value


# ---------------------------------------------------------------------------
# error-bound and width formulas

def test_theoretical_bound_values():
    assert theoretical_bound(10.0, 1.0) == 78.0
    assert theoretical_bound(6.0, 0.04) == 78.0 * 0.04 ** (1.0 / 25.0)
    assert theoretical_bound(math.inf, 0.01) == 44.0 * 0.01 ** 0.2
    assert theoretical_bound(math.inf, 0.01) == pytest.approx(17.5167, abs=1e-3)
    assert theoretical_bound(math.inf, 0.01, inf_norm=3.0) == \
        44.0 * 3.0 ** 0.8 * 0.01 ** 0.2
    assert theoretical_bound(math.inf, 0.01, inf_norm=1.0) == 44.0 * 0.01 ** 0.2
    assert theoretical_bound(6.0, 0.0) == 0.0
    assert theoretical_bound(math.inf, 0.0) == 0.0
    assert theoretical_bound(6.0, 0.1) < theoretical_bound(6.0, 0.2)


def test_theoretical_bound_validation():
    with pytest.raises(ValueError):
        theoretical_bound(5.0, 0.1)
    with pytest.raises(ValueError):
        theoretical_bound(4.9, 0.1)
    with pytest.raises(ValueError):
        theoretical_bound(6.0, -0.1)
    with pytest.raises(ValueError, match="norm index must exceed 5"):
        theoretical_bound(-math.inf, 0.1)           # not the p = inf bound


def test_proposition_constants_wiring():
    lam = estimate_deviation(N3, refinement=2).value
    alpha, m = proposition_constants(N3, 6.0)
    assert alpha == pytest.approx(lam ** (12.0 / 28.0), rel=1e-12)   # sup = 1
    assert m == math.ceil(lam ** (-4.0 / 28.0) - 1e-9)

    half = 0.5 * N3
    lam2 = estimate_deviation(half, refinement=2).value
    alpha2, m2 = proposition_constants(half, math.inf)
    assert alpha2 == pytest.approx(0.5 ** (-1.0 / 3.0) * lam2 ** 0.4, rel=1e-12)
    assert m2 == math.ceil(lam2 ** -0.2 - 1e-9)


def test_proposition_constants_arithmetic_pin(monkeypatch):
    monkeypatch.setattr("robinson_lab.recovery.estimate_deviation",
                        lambda *a, **k: fixed_certificate(0.5))
    alpha, m = proposition_constants(N3, 6.0)
    assert alpha == pytest.approx(0.5 ** (3.0 / 7.0), rel=1e-12)
    assert alpha == pytest.approx(0.7430, abs=1e-4)
    assert m == 2                        # ceil(0.5^(-1/7)) = ceil(1.104...)


def test_proposition_constants_sign_check_is_relative_to_the_sup_norm():
    # two symmetric entries at -1e-13 on a 1e-14-scale kernel: negative at
    # every scale, though an absolute -1e-12 floor passes them
    v = 1e-14 * np.array(_case1_kernel().values)
    v[0, 3] = v[3, 0] = -1e-13
    with pytest.raises(ValueError, match="kernel must be nonnegative"):
        proposition_constants(StepGraphon(v), 6.0)
    # a kernel at 1e-14 of the scale with no negative entry passes the check
    alpha, m = proposition_constants(StepGraphon(1e-14 * _case1_kernel().values), 6.0)
    assert 0 < alpha and m >= 1


def test_proposition_constants_validation():
    with pytest.raises(ValueError):
        proposition_constants(toeplitz_decay(6, seed=1), 6.0)   # zero deviation
    with pytest.raises(ValueError):
        proposition_constants(2.0 * N3, 6.0)                    # norm above one
    with pytest.raises(ValueError):
        proposition_constants(StepGraphon(-0.1 * np.ones((2, 2))), 6.0)
    with pytest.raises(ValueError):
        proposition_constants(N3, 1.0)


# ---------------------------------------------------------------------------
# recover: the finite-p pipeline

def test_recover_identity_on_ordered_input():
    w = toeplitz_decay(8, seed=1)
    approx, rep = recover(w, p=6.0)
    assert rep.case_taken == "alpha-zero"
    assert rep.alpha == 0.0
    assert np.array_equal(approx.values, w.values)
    assert approx.mode == "identity" and rep.approx_mode == "identity"
    assert rep.measured_error == 0.0 and rep.measured_error_exact
    assert rep.theory_bound == 0.0
    assert rep.normalization_scale == lp_norm(w, 6.0)
    assert rep.robinson_validated


def test_recover_case1_report_is_recomputable():
    w, _ = plant_violation(toeplitz_decay(8, seed=2), 0.3, seed=2)
    approx, rep = recover(w, p=6.0)
    assert rep.case_taken == "case1"
    assert rep.deviation_mode == "exact"
    # clipping was a no-op here, so both estimates see the same matrix
    assert rep.deviation_cutoff == rep.deviation_input
    scale = lp_norm(w, 6.0)
    assert rep.normalization_scale == scale
    wn = (1.0 / scale) * w
    assert rep.cutoff_threshold == 2.0 * rep.deviation_input ** -0.2
    assert lp_norm(wn, np.inf) <= rep.cutoff_threshold          # no-op check
    assert rep.alpha == pytest.approx(
        lp_norm(wn, np.inf) ** -0.4 * rep.deviation_cutoff ** 0.4, rel=1e-12)
    assert rep.theory_bound == theoretical_bound(6.0, rep.deviation_input)
    assert rep.robinson_validated
    assert is_robinson(approx.as_graphon(), 1e-12).robinson
    err, exact = measured_cut_error(w, approx)
    assert rep.measured_error == err and rep.measured_error_exact == exact
    assert exact                                                # 8-cell grid
    assert rep.warning is None


@pytest.mark.parametrize("n", [8, 16])        # exact and heuristic estimates
def test_noop_cutoff_reuses_the_first_estimate(monkeypatch, n):
    w, _ = plant_violation(toeplitz_decay(n, seed=2), 0.3, seed=2)
    estimates, searches = [], []

    def counted(fn, log):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append(out)
            return out
        return wrapper

    for name in ("deviation_exact", "deviation_heuristic"):
        monkeypatch.setattr("robinson_lab.recovery." + name,
                            counted(getattr(deviation_module, name), searches))
    monkeypatch.setattr("robinson_lab.recovery.estimate_deviation",
                        counted(estimate_deviation, estimates))
    approx, rep = recover(w, p=6.0)
    wn = (1.0 / rep.normalization_scale) * w
    assert cutoff(wn, rep.cutoff_threshold).exceed_measure == 0.0
    assert len(searches) == 1 and len(estimates) == 2
    assert estimates[1] is estimates[0]
    assert rep.deviation_cutoff == rep.deviation_input > 0.0


def test_estimate_deviation_reuses_only_identical_kernels():
    w, _ = plant_violation(toeplitz_decay(8, seed=2), 0.3, seed=2)
    cert = estimate_deviation(w)
    same = StepGraphon(np.array(w.values))
    assert estimate_deviation(same, known=(w, cert)) is cert
    other = StepGraphon(np.nextafter(w.values, np.inf))
    fresh = estimate_deviation(other, known=(w, cert))
    assert fresh is not cert and fresh == estimate_deviation(other)


def test_recover_case2_routing(monkeypatch):
    # case2 (deviation vanishes after clipping) cannot occur with exact
    # estimates on a normalized nonnegative kernel: the mass above the
    # threshold M = 2 lam^(-1/(p-1)) is at most M^(1-p) = 2^(1-p) lam, far too
    # small to cancel the deviation.  Exercise the branch by stubbing the
    # estimator the way a heuristic blind spot on a large instance would look.
    # The diagonal spike normalizes to about 64^(1/3) = 4 > M = 3.81, so the
    # cutoff changes the kernel; an unclipped kernel keeps its first estimate.
    v = np.array(toeplitz_decay(64, seed=2).values)
    v[0, 0] = 100.0
    w = StepGraphon(v)
    calls = []

    def stub(graphon, refinement=2, restarts=50, seed=0, known=None):
        calls.append(graphon)
        return fixed_certificate(0.04 if len(calls) == 1 else 0.0)

    monkeypatch.setattr("robinson_lab.recovery.estimate_deviation", stub)
    approx, rep = recover(w, p=6.0)
    assert rep.case_taken == "case2"
    assert len(calls) == 2
    assert calls[1].values[0, 0] == 0.0 and calls[1].values[0, 1] == calls[0].values[0, 1]
    assert rep.deviation_input == 0.04 and rep.deviation_cutoff == 0.0
    m = 2.0 * 0.04 ** -0.2
    assert rep.cutoff_threshold == m
    assert rep.alpha == pytest.approx(m ** -0.4 * 0.04 ** 0.4, rel=1e-12)
    assert rep.robinson_validated
    assert rep.warning is None


def test_recover_fallback_when_estimator_misses(monkeypatch):
    monkeypatch.setattr("robinson_lab.recovery.estimate_deviation",
                        lambda *a, **k: fixed_certificate(0.0))
    approx, rep = recover(N3, p=6.0)
    assert rep.case_taken == "fallback-min-alpha"
    assert rep.alpha == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert "smallest positive width" in rep.warning
    assert rep.cutoff_threshold is None and rep.deviation_cutoff is None
    assert rep.theory_bound == 0.0
    assert rep.robinson_validated
    assert is_robinson(approx.as_graphon(), 1e-12).robinson


def test_recover_falls_back_on_an_exact_zero_estimate():
    # one dipped diagonal cell: exact enumeration at r = 1 (n = 10) cannot
    # see a violation inside a single cell, so the exact estimate is 0
    v = np.array(toeplitz_decay(10, seed=4).values)
    v[4, 4] -= 0.5
    w = StepGraphon(v)
    assert not is_robinson(w, 1e-12).robinson
    for approx, rep in (recover(w, p=6.0), recover_bounded(w)):
        assert rep.case_taken == "fallback-min-alpha"
        assert rep.deviation_input == 0.0
        assert rep.to_dict()["lambdaMode"] == "exact"
        assert rep.alpha == pytest.approx(0.1, rel=1e-12)
        assert "smallest positive width" in rep.warning
        assert rep.robinson_validated
        assert is_robinson(approx.as_graphon(), 1e-12).robinson


def test_identity_path_reports_an_ignored_grid():
    w = toeplitz_decay(6, seed=3)
    for route in (lambda **k: recover(w, p=6.0, **k), lambda **k: recover_bounded(w, **k)):
        for grid_n in (None, 6, 6.0):
            approx, rep = route(grid_n=grid_n)
            assert rep.case_taken == "alpha-zero" and rep.warning is None
        approx, rep = route(grid_n=4)
        assert rep.case_taken == "alpha-zero" and rep.approx_grid == 6
        assert np.array_equal(approx.values, w.values)
        assert rep.warning == "grid_n=4 ignored: a zero deviation returns the 6x6 input itself"


OVERSIZE = ("grid_n=1023 and n=16 measure the error on a common grid of 16368 cells,"
            " above the cap 2048")


def test_an_oversize_common_grid_fails_before_the_approximation(monkeypatch):
    # checked before the search, so also where a zero estimate would ignore the grid
    calls = []
    monkeypatch.setattr("robinson_lab.recovery.robinson_approx", lambda *a, **k: calls.append(a))
    monkeypatch.setattr("robinson_lab.recovery.estimate_deviation",
                        lambda *a, **k: calls.append(a))
    planted, _ = plant_violation(toeplitz_decay(16, seed=1), 0.3, seed=1)
    for w in (planted, toeplitz_decay(16, seed=1)):
        for route in (lambda **k: recover(w, p=6.0, **k), lambda **k: recover_bounded(w, **k)):
            with pytest.raises(ValueError, match=OVERSIZE):
                route(grid_n=1023)
    assert calls == []


def test_recover_clamps_width_below_one(monkeypatch):
    monkeypatch.setattr("robinson_lab.recovery.estimate_deviation",
                        lambda *a, **k: fixed_certificate(5.0))
    w, _ = plant_violation(toeplitz_decay(8, seed=2), 0.3, seed=2)
    approx, rep = recover(w, p=6.0)
    assert rep.alpha == 1.0 - 1e-9
    assert rep.warning == "window width clamped below 1"
    assert rep.robinson_validated


def test_recover_scale_equivariance():
    # 1e-60 and 1e55: the L^6 norm's sixth powers underflow and overflow
    w, _ = plant_violation(toeplitz_decay(8, seed=6), 0.25, seed=6)
    a1, r1 = recover(w, p=6.0)
    for c in (4.0, 1e-60, 1e55):
        a2, r2 = recover(c * w, p=6.0)
        assert r1.case_taken == r2.case_taken == "case1"
        assert r2.normalization_scale == pytest.approx(c * r1.normalization_scale,
                                                       rel=1e-12, abs=0.0)
        assert r2.deviation_input == pytest.approx(r1.deviation_input, rel=1e-9)
        assert r2.alpha == pytest.approx(r1.alpha, rel=1e-9)
        assert r2.theory_bound == pytest.approx(r1.theory_bound, rel=1e-9)
        assert np.allclose(a2.values, c * a1.values, rtol=1e-9, atol=c * 1e-12)
        assert r2.measured_error == pytest.approx(c * r1.measured_error, rel=1e-6, abs=0.0)


def test_recover_validation():
    w = toeplitz_decay(4, seed=0)
    with pytest.raises(ValueError):
        recover(w, p=5.0)
    with pytest.raises(ValueError):
        recover(w, p=math.inf)
    with pytest.raises(ValueError, match="norm index p must exceed 5"):
        recover(w, p=-math.inf)
    with pytest.raises(ValueError):
        recover(StepGraphon(np.array([[-0.1, 0.0], [0.0, 0.1]])), p=6.0)


def test_report_dictionary_shape():
    w, _ = plant_violation(toeplitz_decay(6, seed=4), 0.3, seed=4)
    _, rep = recover(w, p=6.0)
    d = rep.to_dict()
    assert set(d) == REPORT_KEYS
    assert d["p"] == 6.0
    assert d["caseTaken"] == rep.case_taken
    assert d["M"] == rep.cutoff_threshold
    assert d["lambdaW"] == rep.deviation_input
    assert set(rep.timings) >= {"normalize", "deviation", "approx", "measureError"}
    _, rep_inf = recover_bounded(w)
    assert rep_inf.to_dict()["p"] == "inf"


# ---------------------------------------------------------------------------
# recover_bounded: the sup-norm route

def test_recover_bounded_unit_range():
    w, _ = plant_violation(0.6 * toeplitz_decay(8, seed=5), 0.2, seed=5)
    assert w.values.min() >= 0.0 and w.values.max() <= 1.0
    approx, rep = recover_bounded(w)
    assert rep.case_taken == "bounded-corollary"
    lam = deviation_exact(w, 1).value
    sup = lp_norm(w, np.inf)
    assert rep.deviation_input == lam
    assert rep.alpha == sup ** (-1.0 / 3.0) * lam ** 0.4
    assert rep.theory_bound == 44.0 * lam ** 0.2
    assert rep.measured_error <= rep.theory_bound
    assert rep.robinson_validated
    assert is_robinson(approx.as_graphon(), 1e-12).robinson


def test_recover_bounded_general_sup_norm():
    w, _ = plant_violation(0.6 * toeplitz_decay(8, seed=5), 0.2, seed=5)
    w2 = 2.0 * w
    _, rep = recover_bounded(w2)
    lam = deviation_exact(w2, 1).value
    sup = lp_norm(w2, np.inf)
    assert sup > 1.0
    assert rep.alpha == sup ** -0.4 * lam ** 0.4
    assert rep.theory_bound == 44.0 * sup ** 0.8 * lam ** 0.2
    assert rep.measured_error <= rep.theory_bound


def test_recover_bounded_identity_and_fallback(monkeypatch):
    w = cumulative_envelope(7, seed=3)
    approx, rep = recover_bounded(w)
    assert rep.case_taken == "alpha-zero"
    assert np.array_equal(approx.values, w.values)
    assert math.isinf(rep.p)

    monkeypatch.setattr("robinson_lab.recovery.estimate_deviation",
                        lambda *a, **k: fixed_certificate(0.0))
    _, rep = recover_bounded(N3)
    assert rep.case_taken == "fallback-min-alpha"
    assert rep.alpha == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rep.warning is not None


# ---------------------------------------------------------------------------
# golden pins: both routes, every case, byte for byte

def _dipped_diagonal():
    v = np.array(toeplitz_decay(10, seed=4).values)
    v[4, 4] -= 0.5
    return StepGraphon(v)


def _case1_kernel():
    return plant_violation(toeplitz_decay(8, seed=2), 0.3, seed=2)[0]


def _unit_kernel():
    return plant_violation(0.6 * toeplitz_decay(8, seed=5), 0.2, seed=5)[0]


def _pin(approx, rep):
    """sha256 of the approximation bytes, the report without timing values
    and the sorted timing keys."""
    fields = {k: v for k, v in rep.to_dict().items() if k != "timings"}
    h = hashlib.sha256(approx.values.tobytes())
    h.update(json.dumps(fields, sort_keys=True).encode())
    h.update(json.dumps(sorted(rep.timings)).encode())
    return h.hexdigest()


GOLDEN_PINS = (
    ("recover-alpha-zero", lambda: recover(toeplitz_decay(6, seed=3), p=6.0),
     "931ea170d1a557c75ff0e825c8a10918be4bb2c931a647572a987608bee6af10"),
    ("recover-alpha-zero-grid4", lambda: recover(toeplitz_decay(6, seed=3), p=6.0, grid_n=4),
     "7cc0b9409caf254a4d2b1885a5cd5ed309dcc3973d23365fd241363ba7eccba8"),
    ("bounded-alpha-zero", lambda: recover_bounded(toeplitz_decay(6, seed=3)),
     "76e4382fdff1717427fa226f0f9e6a158dee0ca8e01f1ef95f268dffd31787b4"),
    ("bounded-alpha-zero-grid4", lambda: recover_bounded(toeplitz_decay(6, seed=3), grid_n=4),
     "db8266ee1815693525ef412fdf44c1ff3653496ef7c68259a30fb50e34bc67c5"),
    ("recover-fallback", lambda: recover(_dipped_diagonal(), p=6.0),
     "2d4e9cd29782134597d58cbf0cf3a5a51bf74624724f38090e4cea6efc0c4b6f"),
    ("bounded-fallback", lambda: recover_bounded(_dipped_diagonal()),
     "8cb1a3bf7d7bc03bbf0e8084854dc6f5923fddecb220f49cb499d8007e35c929"),
    ("recover-case1", lambda: recover(_case1_kernel(), p=6.0),
     "2e745a338682025e3f3995c2926f282a1cc086bbbc5b8b867e2203f7c2b6fb01"),
    ("recover-case1-grid12", lambda: recover(_case1_kernel(), p=6.0, grid_n=12),
     "f90cab4a471ff7b5beb5ce26e59d5e7c34d0ef7c3163085bdc341ab40855e731"),
    ("bounded-unit", lambda: recover_bounded(_unit_kernel()),
     "e6d9fdfec1453c552081b4ef72a502226d141366183e50f42cd6c250b70d03c4"),
    ("bounded-sup-above-one", lambda: recover_bounded(2.0 * _unit_kernel()),
     "551151d9c50412c31a052e19c117bcd1cf1bd9fcb0cdd3fd07cb4d966d776340"),
    ("bounded-negative-entries",
     lambda: recover_bounded(StepGraphon(_unit_kernel().values - 0.3), grid_n=12),
     "44069484acbcbbdc93015d3590c8a8e1cf700b98ccd81b0cbd6fc09ea3c267f0"),
)


@pytest.mark.parametrize("run, want", [pytest.param(run, want, id=name)
                                       for name, run, want in GOLDEN_PINS])
def test_golden_pins(run, want):
    approx, rep = run()
    assert _pin(approx, rep) == want
    assert not approx.values.flags.writeable


@pytest.mark.parametrize("c", [1e-15, 1.0, 1e6])
def test_alpha_zero_check_is_scale_free(c):
    # the dipped cell violates Robinson at every scale, so neither route may
    # hand back the input as its own approximation
    w = StepGraphon(c * _dipped_diagonal().values)
    for approx, rep in (recover(w, p=6.0), recover_bounded(w)):
        assert rep.case_taken == "fallback-min-alpha"
        assert is_robinson(StepGraphon(approx.values / c), 1e-12).robinson


def test_recover_is_deterministic():
    w, _ = plant_violation(toeplitz_decay(8, seed=9), 0.2, seed=9)
    a1, r1 = recover(w, p=8.0)
    a2, r2 = recover(w, p=8.0)
    assert np.array_equal(a1.values, a2.values)
    assert r1.alpha == r2.alpha and r1.measured_error == r2.measured_error


def test_diagonal_band_of_zero_width_is_zero():
    assert diagonal_band_integral(toeplitz_decay(5, seed=1), 0) == 0.0


# ---------------------------------------------------------------------------
# clipped-kernel consistency: the closed form misses an ordered kernel by at
# most the mass sitting within 2*alpha of the diagonal

def test_closed_form_error_bounded_by_diagonal_band():
    for w, alpha in ((toeplitz_decay(8, seed=1), 0.25),
                     (toeplitz_decay(8, seed=3), 0.125),
                     (smooth_exp(6), 1.0 / 3.0),
                     (cumulative_envelope(8, seed=2), 0.25),
                     (toeplitz_decay(10, seed=7), 0.2)):
        cf = closed_form_robinson_ae(w, alpha)
        common = math.lcm(w.n, cf.grid_n)
        diff = refine(w, common // w.n) - \
            refine(StepGraphon(cf.values), common // cf.grid_n)
        err = cut_norm(diff, cap=16).value
        assert err <= diagonal_band_integral(w, 2.0 * alpha) + 1e-9
