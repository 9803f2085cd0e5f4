import numpy as np
import pytest

from rsl.dispersion import get_symbol
from rsl.estimates import canonical_band_amplitude
from rsl.fastfield import BandFieldSampler, SamplerConfig, band_norm_adaptive, czt_points
from rsl.grids import PhysicalGrid, band_edges, uniform_grid
from rsl.propagator import evolve
from rsl.transform import profile_from_fn

SCH = get_symbol("schrodinger")


def test_czt_matches_direct_sum():
    rng = np.random.default_rng(1)
    n, m = 73, 41
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s0, ds, r0, dr = 0.4, 0.013, 2.7, 0.21
    s = s0 + ds * np.arange(n)
    r = r0 + dr * np.arange(m)
    for sign in (+1.0, -1.0):
        direct = np.array([np.sum(c * np.exp(1j * sign * rj * s)) for rj in r])
        fast = czt_points(c, s0, ds, r0, dr, m, sign)
        np.testing.assert_allclose(fast, direct, atol=1e-10)


CATALOG_CASES = [
    ("schrodinger", 2, 0, None),
    ("schrodinger", 3, -1, None),
    ("wave", 3, 1, None),
    ("klein-gordon", 4, 2, None),
    ("beam", 5, -2, None),
    ("fourth-order", 2, 1, None),
    ("fractional:1.5", 2, 0, None),
    ("schrodinger", 4, 0, (8.0, 16.0)),
    ("wave", 5, 0, (0.0, 6.0)),
]


@pytest.mark.parametrize(
    "name, n, k, r_window", CATALOG_CASES,
    ids=[f"{c[0].replace(':', '')}-n{c[1]}-k{c[2]}" + ("-window" if c[3] else "")
         for c in CATALOG_CASES],
)
def test_sampler_field_matches_evolve(name, n, k, r_window):
    # F from the chirp-Z path vs dense kernel quadrature of the same datum
    sym = get_symbol(name)
    T = 4.0 if name == "wave" else 4.0 * 2.0 ** (-k)
    amp = canonical_band_amplitude(n, k)
    sampler = BandFieldSampler(sym, n, k, amp, T=T, r_window=r_window)
    prof = profile_from_fn(amp, uniform_grid(*band_edges(k), 8193), n)
    r = np.concatenate([sampler.r_in, sampler.r_out])
    sel = slice(0, None, max(r.size // 40, 1))
    r = r[sel]
    times = np.array([0.0, T / 2, T])
    ref = evolve(sym, prof, None, PhysicalGrid(np.maximum(r, 1e-12), times)).values
    for t, ref_t in zip(times, ref):
        vals = np.concatenate(sampler.field_at(t))[sel]
        assert np.max(np.abs(vals - ref_t)) / np.max(np.abs(ref_t)) < 1e-7


def test_sampler_mass_conservation():
    amp = canonical_band_amplitude(2, 0)
    sampler = BandFieldSampler(SCH, 2, 0, amp, T=8.0)
    for t in (0.0, 3.0, 8.0):
        assert sampler.mass_at(t) == pytest.approx(sampler.mass_true, rel=2e-4)


def test_sampler_refinement_stability():
    amp = canonical_band_amplitude(2, 0)
    base = BandFieldSampler(SCH, 2, 0, amp, T=8.0).norms([(4.0, 4.0)])[(4.0, 4.0)][0]
    fine = BandFieldSampler(SCH, 2, 0, amp, T=8.0, config=SamplerConfig().refined()).norms(
        [(4.0, 4.0)]
    )[(4.0, 4.0)][0]
    assert abs(base - fine) / fine < 1e-3


def test_adaptive_band_norm_converges():
    amp = canonical_band_amplitude(2, 0)
    res = band_norm_adaptive(SCH, 2, 0, amp, [(4.0, 4.0)], T0=16.0, max_doublings=4)
    r = res[(4.0, 4.0)]
    assert r.converged
    # octave contributions decay geometrically for q = 4 > 10/3
    tail = [p for p in r.octave_powers if p > 0][-3:]
    assert tail[-1] < tail[0]
    # so the geometric tail extrapolation exists and adds less than tol
    assert np.isfinite(r.extrapolated)
    assert abs(r.extrapolated - r.norm) <= 1e-2 * r.norm


def test_adaptive_band_norm_flags_unitary_l2():
    # ||F(t)||_2 is constant in t, so the (2, 2) octave powers grow with the
    # octave length: no saturation and no geometric tail to extrapolate
    amp = canonical_band_amplitude(2, 0)
    res = band_norm_adaptive(SCH, 2, 0, amp, [(2.0, 2.0)], T0=16.0, max_doublings=1)
    r = res[(2.0, 2.0)]
    assert r.octave_powers[-1] >= r.octave_powers[-2]
    assert r.nonconvergent and not r.converged
    assert r.extrapolated is None


def test_annulus_window_restriction():
    amp = canonical_band_amplitude(2, 0)
    j = 5
    sampler = BandFieldSampler(SCH, 2, 0, amp, T=64.0, r_window=(2.0 ** (j - 1), 2.0**j))
    assert sampler.r_in.size == 0
    assert sampler.r_out[0] >= 2.0 ** (j - 1) - 1e-9
    norm, powers = sampler.norms([(4.0, 4.0)])[(4.0, 4.0)]
    assert norm > 0
