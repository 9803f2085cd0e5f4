import numpy as np
import pytest

from rsl.dispersion import (
    builtin_symbols,
    fractional_symbol,
    get_symbol,
    regime_exponents,
    verify_hypotheses,
)
from rsl.errors import NonPositiveSample, UnknownSigma


def test_catalog_contents_and_exponents():
    cat = builtin_symbols()
    assert set(cat) == {"schrodinger", "wave", "klein-gordon", "beam", "fourth-order"}
    sch = cat["schrodinger"]
    assert (sch.m1, sch.m2, sch.alpha1, sch.alpha2) == (2, 2, 2, 2)
    wav = cat["wave"]
    assert (wav.m1, wav.m2) == (1, 1)
    assert not wav.has_curvature
    kg = cat["klein-gordon"]
    assert (kg.m1, kg.alpha1, kg.m2, kg.alpha2) == (1, -1, 2, 2)
    beam = cat["beam"]
    assert (beam.m1, beam.alpha1, beam.m2, beam.alpha2) == (2, 2, 4, 4)


def test_fractional_lookup():
    f = get_symbol("fractional:1.5")
    assert (f.m1, f.m2, f.alpha1, f.alpha2) == (1.5, 1.5, 1.5, 1.5)
    with pytest.raises(UnknownSigma):
        fractional_symbol(-1.0)
    with pytest.raises(UnknownSigma):
        fractional_symbol(0.0)


def test_regime_exponents_piecewise():
    kg = get_symbol("klein-gordon")
    assert (regime_exponents(kg, 3).m, regime_exponents(kg, 3).alpha) == (1, -1)
    assert (regime_exponents(kg, -2).m, regime_exponents(kg, -2).alpha) == (2, 2)
    assert (regime_exponents(kg, 0).m, regime_exponents(kg, 0).alpha) == (1, -1)
    sch = get_symbol("schrodinger")
    assert (regime_exponents(sch, 0).m, regime_exponents(sch, 0).alpha) == (2, 2)
    # piecewise constant with the single breakpoint at k = 0
    for k in range(-8, 9):
        reg = regime_exponents(kg, k)
        assert reg.m == (1 if k >= 0 else 2)


def test_dispersion_mismatch_relations():
    # declared curvature never exceeds growth at high frequency, reverse at low
    for sym in builtin_symbols().values():
        if sym.has_curvature:
            assert sym.alpha1 <= sym.m1
            assert sym.alpha2 >= sym.m2


def test_hypothesis_verification_catalog():
    # every catalog symbol passes the dyadic window check with C = 10
    for name, sym in builtin_symbols().items():
        rep = verify_hypotheses(sym, range(-8, 9))
        assert rep.passed, f"{name} failed the hypothesis window"
    rep = verify_hypotheses(get_symbol("fractional:1.5"), range(-8, 9))
    assert rep.passed


def test_hypothesis_exact_power_ratios():
    # phi(r) = r^1.5: the ratios are exactly sigma and sigma(sigma-1)
    rep = verify_hypotheses(get_symbol("fractional:1.5"), range(-5, 6))
    for o in rep.octaves:
        assert o.dphi_min == pytest.approx(1.5, rel=1e-12)
        assert o.dphi_max == pytest.approx(1.5, rel=1e-12)
        assert o.d2phi_min == pytest.approx(0.75, rel=1e-12)


def test_hypothesis_wave_identity():
    rep = verify_hypotheses(get_symbol("wave"), range(-5, 6))
    for o in rep.octaves:
        assert o.dphi_min == pytest.approx(1.0)
        assert o.d2phi_min is None


def test_klein_gordon_high_band_window():
    rep = verify_hypotheses(get_symbol("klein-gordon"), range(2, 7))
    # m = 1 regime: |phi'| / r^0 = r / sqrt(1+r^2), inside (0.97, 1) on [4, 128]
    for o in rep.octaves:
        assert 0.9 < o.dphi_min <= o.dphi_max <= 1.0 + 1e-12


def test_nonpositive_grid_rejected():
    # octaves so deep that 2^k underflows to zero
    with pytest.raises(NonPositiveSample):
        verify_hypotheses(get_symbol("wave"), range(-1200, -1198))


def test_derivatives_match_finite_differences():
    # centered differences of phi reproduce dphi (and of dphi reproduce d2phi)
    r = np.exp(np.linspace(np.log(0.1), np.log(10.0), 25))
    h = 6e-6 * r
    names = list(builtin_symbols()) + ["fractional:1.5"]
    for name in names:
        sym = get_symbol(name)
        fd1 = (sym.phi(r + h) - sym.phi(r - h)) / (2 * h)
        ref1 = sym.dphi(r)
        mask = np.abs(ref1) > 1e-12
        assert np.max(np.abs(fd1[mask] - ref1[mask]) / np.abs(ref1[mask])) < 1e-6, name
        fd2 = (sym.dphi(r + h) - sym.dphi(r - h)) / (2 * h)
        ref2 = sym.d2phi(r)
        mask = np.abs(ref2) > 1e-12
        if mask.any():
            assert np.max(np.abs(fd2[mask] - ref2[mask]) / np.abs(ref2[mask])) < 1e-6, name


def test_pure_power_scaling_identity():
    # phi(2^k s) = 2^{ak} phi(s) exactly for the power symbols
    s = np.linspace(0.3, 3.0, 50)
    sch = get_symbol("schrodinger")
    for k in (-3, 1, 4):
        assert np.array_equal(sch.phi(2.0**k * s), 2.0 ** (2 * k) * sch.phi(s))
    frac = get_symbol("fractional:1.5")
    for k in (-2, 2):
        np.testing.assert_allclose(frac.phi(2.0**k * s), 2.0 ** (1.5 * k) * frac.phi(s), rtol=1e-15)


def test_massive_symbols_without_cancellation():
    # sqrt(1 + s^d) - 1 is kept as s^d / (1 + sqrt(1 + s^d)): exactly s^d / 2
    # where 1 + s^d rounds to 1, and zero at s = 0
    s = 2.0 ** np.arange(-64.0, -30.0)
    for name, d in (("klein-gordon", 2), ("beam", 4)):
        sym = get_symbol(name)
        assert np.array_equal(sym.phi(s), s**d / 2.0), name
        assert sym.phi(np.asarray(0.0)) == 0.0
        assert sym.phi(np.asarray(3.0)) == pytest.approx(np.sqrt(1.0 + 3.0**d) - 1.0, rel=1e-15)
