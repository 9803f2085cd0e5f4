import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from rsl.dispersion import fractional_symbol, get_symbol
from rsl.errors import (
    AdmissibilityViolation,
    DomainError,
    OutOfRangeQ,
    OutOfRangeSigma,
    ParameterViolation,
    RegimeViolation,
)
from rsl.estimates import (
    conjecture_probe,
    counterexample_schrodinger,
    counterexample_wave,
    fit_annulus_scaling,
    fit_frequency_scaling,
    hls_bilinear_check,
    hls_bilinear_form,
    hls_parameters,
    knapp_fractional,
    maximal_check,
    measure_annulus_norms,
    predicted_exponent,
    retarded_strichartz_check,
    smoothing_lemma_check,
    strichartz_l6_check,
)
from rsl.fastfield import BandFieldSampler, band_norm_adaptive
from rsl.grids import PhysicalGrid
from rsl.norms import MixedNormSpec, mixed_norm
from rsl.propagator import evolve
from rsl.transform import canonical_band_amplitude, canonical_band_profile

SCH = get_symbol("schrodinger")
WAVE = get_symbol("wave")
KG = get_symbol("klein-gordon")
FRAC = get_symbol("fractional:1.5")


# ---------------------------------------------------------------- predicted

def test_predicted_exponent_examples():
    assert predicted_exponent(SCH, 2, 4, 1, "thm1") == pytest.approx(0.0)
    assert predicted_exponent(SCH, 2, Fraction(10, 3), 1, "thm2") == pytest.approx(-0.2)
    assert predicted_exponent(WAVE, 3, 4, 1, "thm1") == pytest.approx(0.5)
    assert predicted_exponent(KG, 2, 6, 2, "thm1") == pytest.approx(0.5)
    # second form carries the curvature-mismatch correction for k >= 0
    assert predicted_exponent(KG, 2, Fraction(10, 3), 2, "thm2") == pytest.approx(
        1.0 - 0.9 + (0.25 - 0.15) * (1 - (-1))
    )
    with pytest.raises(OutOfRangeQ):
        predicted_exponent(SCH, 2, 3.0, 1, "thm1")  # below 2n/(n-1)
    with pytest.raises(OutOfRangeQ):
        predicted_exponent(SCH, 2, 8.0, 1, "thm2")  # above 6
    with pytest.raises(OutOfRangeQ):
        predicted_exponent(WAVE, 2, 5.0, 1, "thm2")  # no curvature exponents


# ---------------------------------------------------------------- 1-D lemmas

def test_smoothing_wave_ratio_is_exact_constant():
    # phi(s) = s: change of variables is exact, the q = 2 ratio is sqrt(2 pi)
    for k in (0, 3, -2):
        rep = smoothing_lemma_check(WAVE, k, 2.0, trial_count=3, seed=7)
        for r in rep.ratios:
            assert r == pytest.approx(math.sqrt(2 * math.pi), rel=1e-3)


def test_smoothing_schrodinger_stable_across_k():
    vals = []
    for k in (-3, 0, 3):
        rep = smoothing_lemma_check(SCH, k, 4.0, trial_count=4, seed=0)
        vals.append(rep.max_ratio)
        assert rep.passed
    assert max(vals) / min(vals) < 1.1


def test_smoothing_zero_data():
    rep = smoothing_lemma_check(SCH, 0, 4.0,
                                trial_data=[lambda s: np.zeros_like(s)])
    assert rep.ratios == (0.0,)
    assert rep.passed


def test_l6_slopes():
    fit = strichartz_l6_check(SCH, range(-2, 3))
    assert fit.predicted_slope == pytest.approx(0.0)
    assert abs(fit.slope) <= 0.05
    fit = strichartz_l6_check(FRAC, range(-2, 3))
    assert fit.predicted_slope == pytest.approx(1.0 / 3 - 1.5 / 6)
    assert fit.slope <= fit.predicted_slope + 0.1
    with pytest.raises(OutOfRangeQ):
        strichartz_l6_check(WAVE, range(0, 3))


def test_l6_klein_gordon_high_frequency():
    # alpha = -1 regime: predicted 1/3 + 1/6 = 1/2
    fit = strichartz_l6_check(KG, range(2, 6))
    assert fit.predicted_slope == pytest.approx(0.5)
    assert fit.slope <= fit.predicted_slope + 0.1


def test_maximal_slopes():
    fit = maximal_check(2.0, range(2, 7))
    assert abs(fit.slope - 0.5) <= 0.1
    fit = maximal_check(1.0, range(2, 7))
    assert abs(fit.slope - 0.5) <= 0.1
    fit = maximal_check(1.5, range(2, 7))
    assert abs(fit.slope - 0.375) <= 0.1


# ---------------------------------------------------------------- bilinear

def test_hls_parameters_and_violation():
    a, b, lam, rp = hls_parameters(2, Fraction(10, 3))
    assert a == pytest.approx(0.2) and lam == pytest.approx(0.2)
    rep = hls_bilinear_check(Fraction(10, 3), 2)
    assert rep.passed
    with pytest.raises(ParameterViolation):
        hls_bilinear_check(2.0, 2)  # lam = 0 violates 0 < lam < d


def test_hls_direct_quadrature_oracle():
    # f = g = 1_{[1,2]}: midpoint value against nested adaptive quadrature
    # (the inner integral is split at its interior singularity y = x)
    alpha, beta, lam, _ = hls_parameters(2, Fraction(10, 3))
    mid = hls_bilinear_form((1.0, 2.0), (1.0, 2.0), alpha, beta, lam, 512)

    def inner(x):
        val, _ = integrate.quad(
            lambda y: 1.0 / (x**alpha * abs(x - y) ** lam * y**beta),
            1.0, 2.0, points=[x], limit=200,
        )
        return val

    oracle, _ = integrate.quad(inner, 1.0, 2.0, limit=200)
    assert mid == pytest.approx(oracle, rel=2e-3)


# ---------------------------------------------------------------- sharpness

def test_counterexample_wave_divergence_and_control():
    R = [2.0**i for i in range(4, 11)]
    rep = counterexample_wave(2, 4, R)
    assert rep.monotone and not rep.saturated and rep.slope > 0
    assert rep.diverges
    # all octave increments stay above the saturation tolerance
    assert min(rep.meta["relative_increments"]) > 1e-2
    # control above the critical line saturates on a longer sweep
    ctrl = counterexample_wave(2, 4.5, [2.0**i for i in range(4, 13)])
    assert ctrl.saturated
    # n = 3 at its critical exponent q = 3 diverges likewise
    rep3 = counterexample_wave(3, 3, R)
    assert rep3.monotone and not rep3.saturated


def test_counterexample_schrodinger_slopes():
    fit = counterexample_schrodinger(2, 3, range(4, 9))
    assert fit.predicted_slope == pytest.approx(1.0 / 6, abs=1e-12)
    assert fit.slope >= fit.predicted_slope - 0.05 and fit.slope > 0
    # endpoint: the same family stops growing
    fit_e = counterexample_schrodinger(2, Fraction(10, 3), range(4, 9))
    assert abs(fit_e.slope) <= 0.05
    # n = 3 below the endpoint
    fit3 = counterexample_schrodinger(3, 2.5, range(4, 8))
    assert fit3.predicted_slope == pytest.approx(7 / 2.5 - 2.5)
    assert fit3.slope >= fit3.predicted_slope - 0.05


@pytest.mark.parametrize("call, error", [
    (lambda: smoothing_lemma_check(SCH, 0, math.inf), OutOfRangeQ),
    (lambda: counterexample_wave(2, "inf", [16, 32]), OutOfRangeQ),
    (lambda: counterexample_schrodinger(2, "inf", range(4, 6)), OutOfRangeQ),
    (lambda: knapp_fractional(1.5, [0.125, 0.0625], math.inf, 4.0), OutOfRangeQ),
    (lambda: knapp_fractional(1.5, [0.125, 0.0625], 4.0, math.inf), OutOfRangeQ),
    (lambda: knapp_fractional(3.0, [0.125, 0.0625], 4.0, 4.0), OutOfRangeSigma),
    (lambda: maximal_check(-1.0, range(2, 4)), DomainError),
], ids=["smoothing-q", "wave-q", "schrodinger-q", "knapp-q", "knapp-r", "knapp-sigma",
        "maximal-a"])
def test_out_of_range_arguments_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_knapp_probe():
    deltas = [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]
    rep = knapp_fractional(1.5, deltas, 3, 3)
    assert rep.predicted_slope == pytest.approx(-1.0 / 3)
    assert abs(rep.slope - rep.predicted_slope) <= 0.1
    rep = knapp_fractional(1.5, deltas, 4, 4)
    assert abs(rep.slope) <= 0.1  # boundary case 2/q + d/r = d/2
    # tube coherence: |U| ~ |D| on the co-moving region
    assert min(rep.meta["u_over_D_min"]) > 0.5
    assert max(rep.meta["u_over_D_max"]) < 1.5


# ---------------------------------------------------------------- fits

def test_fit_frequency_scaling_schrodinger_small():
    fit = fit_frequency_scaling(SCH, 2, 4, range(-1, 2), T0=32.0)
    assert abs(fit.slope - 0.0) <= 0.05
    assert fit.reliable


def test_fit_annulus_regimes_and_violations():
    with pytest.raises(RegimeViolation):
        fit_annulus_scaling(SCH, 2, 4, 0, [0, 3], "outer_thm2")
    with pytest.raises(RegimeViolation):
        fit_annulus_scaling(SCH, 2, 4, 0, [0, 2], "inner")
    fit = fit_annulus_scaling(SCH, 2, 4, 0, range(-3, 1), "inner")
    assert fit.slope <= fit.predicted_slope + 0.1


def test_measure_annulus_multi_q_shares_windows():
    res = measure_annulus_norms(SCH, 2, [4.0, 6.0], 0, [4, 5], "outer_thm2")
    assert set(res) == {4.0, 6.0}
    assert res[4.0][4].norm > res[6.0][4].norm > 0


def test_inner_annuli_at_q2():
    # per-annulus norms stay finite at q = 2 (local smoothing) with slope
    # bounded by n/q = 1
    fit = fit_annulus_scaling(SCH, 2, 2, 0, range(-4, 1), "inner")
    assert np.isfinite(fit.slope)
    assert fit.slope <= 1.0 + 0.1


def test_fit_reliability_flag():
    from rsl.estimates import fit_line

    good = fit_line([0, 1, 2, 3], [0.0, 0.5, 1.0, 1.5], 0.5)
    assert good.reliable and good.max_residual < 1e-12
    noisy = fit_line([0, 1, 2, 3], [0.0, 0.9, 1.0, 1.9], 0.5)
    assert not noisy.reliable  # max residual above 0.2 flags the fit


def test_random_data_policy_runs():
    from rsl.estimates import DataPolicy, measure_frequency_norms

    res = measure_frequency_norms(SCH, 2, [4.0], [0], T0=16.0, max_doublings=0,
                                  data_policy=DataPolicy("random", seed=11))
    assert res[4.0][0].norm > 0
    # determinism under the recorded seed
    res2 = measure_frequency_norms(SCH, 2, [4.0], [0], T0=16.0, max_doublings=0,
                                   data_policy=DataPolicy("random", seed=11))
    assert res2[4.0][0].norm == res[4.0][0].norm


RESCALE_CASES = [(name, n) for name in ("schrodinger", "wave", "fractional:1.5")
                 for n in (2, 3)]


@pytest.mark.parametrize("name, n", RESCALE_CASES,
                         ids=[f"{c[0].replace(':', '')}-n{c[1]}" for c in RESCALE_CASES])
def test_homogeneous_rescale_matches_direct_bands(name, n):
    # band 0 rescaled by the scaling law against band k measured directly;
    # in every case one of the two q has a norm factor other than 1
    from rsl.estimates import measure_frequency_norms

    sym = get_symbol(name)
    qs = [10.0 / 3.0, 4.0]
    T0 = 16.0
    res = measure_frequency_norms(sym, n, qs, [-2, 2], T0=T0, max_doublings=1)
    for k in (-2, 2):
        direct = band_norm_adaptive(
            sym, n, k, canonical_band_amplitude(n, k), [(q, q) for q in qs],
            T0=T0 * 2.0 ** (-sym.degree * k), max_doublings=1,
        )
        for q in qs:
            got, ref = res[q][k], direct[(q, q)]
            assert got.norm == pytest.approx(ref.norm, rel=1e-12, abs=0)
            assert got.T == pytest.approx(ref.T, rel=1e-12, abs=0)
            np.testing.assert_allclose(got.octave_powers, ref.octave_powers, rtol=1e-12, atol=0)
            assert (got.extrapolated is None) == (ref.extrapolated is None)
            if ref.extrapolated is not None:
                assert got.extrapolated == pytest.approx(ref.extrapolated, rel=1e-12, abs=0)
            assert (got.converged, got.nonconvergent) == (ref.converged, ref.nonconvergent)


@pytest.mark.parametrize("name, policy, measured", [
    ("schrodinger", "canonical", [0]),
    ("klein-gordon", "canonical", [-1, 0, 1]),
    ("schrodinger", "random", [-1, 0, 1]),
])
def test_band_measurements_per_sweep(name, policy, measured, monkeypatch):
    # the rescale applies to homogeneous symbols with canonical data only
    import rsl.estimates as est

    seen = []

    def counted(*args, **kwargs):
        seen.append(args[2])
        return band_norm_adaptive(*args, **kwargs)

    monkeypatch.setattr(est, "band_norm_adaptive", counted)
    res = est.measure_frequency_norms(get_symbol(name), 2, [4.0], [-1, 0, 1], T0=2.0,
                                      max_doublings=0, data_policy=est.DataPolicy(policy))
    assert seen == measured
    assert sorted(res[4.0]) == [-1, 0, 1]


# ---------------------------------------------------------------- retarded

def test_retarded_bounded_and_violations():
    rep = retarded_strichartz_check(
        SCH, 2, (Fraction(10, 3), Fraction(10, 3)), (Fraction(10, 3), Fraction(10, 3)),
        trials=3, seed=2,
    )
    assert rep.passed
    with pytest.raises(AdmissibilityViolation):
        retarded_strichartz_check(SCH, 2, (2, 2), (Fraction(10, 3), Fraction(10, 3)))


def test_retarded_fractional_gap_line():
    # sigma = 1.5, n = 2, symmetric pair on the gamma = 0 gap line: q = 7/2
    rep = retarded_strichartz_check(
        FRAC, 2, (Fraction(7, 2), Fraction(7, 2)), (Fraction(7, 2), Fraction(7, 2)),
        trials=2, seed=3,
    )
    assert rep.passed


# ---------------------------------------------------------------- open segment

def test_conjecture_probe_matches_dense_evolve():
    # the probe's L^2_t L^{r*}_x norm over 2 <= r <= R against a dense evolve
    # of the same datum on the probe's own time nodes; the probe integrates
    # the piecewise-linear integrand up to R (second order), measured
    # deviation 2.6e-4 at R = 8 and 1.1e-4 at R = 16
    a, n, R_values, T = 2.0, 2, [8.0, 16.0], 16.0
    rep = conjecture_probe(a, n, R_values, T=T)
    assert rep.monotone
    symbol = fractional_symbol(a)
    t = BandFieldSampler(symbol, n, 0, canonical_band_amplitude(n, 0), T,
                         r_window=(0.0, 1.05 * max(R_values))).t
    prof = canonical_band_profile(n, 0)  # 2049 uniform nodes
    for R, value in zip(R_values, rep.values):
        fld = evolve(symbol, prof, None, PhysicalGrid(np.linspace(2.0, R, 801), t))
        # factor sqrt(2): the norm over -T <= t <= T of a field even in t
        ref = math.sqrt(2.0) * mixed_norm(fld, MixedNormSpec(2.0, rep.meta["r_star"]))
        assert abs(value - ref) / ref < 1e-3
