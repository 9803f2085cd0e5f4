import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsl
from rsl.bessel import HANKEL_X_MIN, hankel_phase_coeffs
from rsl.dispersion import get_symbol
from rsl.errors import OutOfRangeQ
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


def test_czt_matches_direct_sum_at_sampler_size():
    # sampler-sized transform: chirp phases reach ~1e3 rad at both ends
    rng = np.random.default_rng(2)
    n, m = 901, 2501
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s0, ds, r0, dr = 0.5, 1.5 / (n - 1), 3.25, np.pi / 12.0
    s = s0 + ds * np.arange(n)
    r = r0 + dr * np.arange(m)
    for sign in (+1.0, -1.0):
        direct = np.exp(1j * sign * np.outer(r, s)) @ c
        fast = czt_points(c, s0, ds, r0, dr, m, sign)
        assert np.max(np.abs(fast - direct)) / np.sum(np.abs(c)) < 1e-11


def _outer_field_direct(sampler, n, t):
    """The sampler's separable outer expansion at time t, evaluated as P
    direct sums per sign over its own frequency nodes and weights."""
    b = hankel_phase_coeffs(n)
    s, r = sampler.s, sampler.r_out
    p = np.arange(b.size)[:, None]
    s_pow = s ** ((n - 1) / 2.0) * (HANKEL_X_MIN / s) ** p
    r_pow = r ** (-(n - 1) / 2.0) * (1.0 / r) ** p
    rows = sampler.c_base * np.exp(1j * t * sampler.symbol.phi(s)) * s_pow
    plus = rows @ np.exp(1j * np.outer(s, r))
    minus = rows @ np.exp(-1j * np.outer(s, r))
    beta = (n - 1) * np.pi / 4.0
    tot = np.exp(-1j * beta) * np.sum(b[:, None] * r_pow * plus, axis=0) \
        + np.exp(1j * beta) * np.sum(np.conj(b)[:, None] * r_pow * minus, axis=0)
    return tot / np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("name, n, k, T, r_window", [
    ("schrodinger", 2, 0, 16.0, None),
    ("wave", 3, 1, 8.0, None),
    ("klein-gordon", 4, 2, 4.0, (3.0, 20.0)),
])
def test_sampler_outer_field_matches_direct_expansion(name, n, k, T, r_window):
    # the fused transforms against the expansion they implement; a copy
    # without the grid-origin phase or the minus-row conjugation fails
    sampler = BandFieldSampler(get_symbol(name), n, k, canonical_band_amplitude(n, k), T,
                               r_window=r_window)
    for t in (0.0, sampler.t[sampler.t.size // 3], T):
        fast = sampler.field_at(t)[1]
        ref = _outer_field_direct(sampler, n, t)
        assert np.max(np.abs(fast - ref)) / np.max(np.abs(ref)) < 1e-10


def test_import_skips_scipy_signal_and_integrate():
    # importing the package stays cheap: the chirp-Z transform is in-house
    # and only the Bessel oracle imports scipy.integrate, on first use
    src = str(Path(rsl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import rsl, sys; "
            "print([m for m in ('scipy.signal', 'scipy.integrate') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


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


def test_adaptive_band_norm_converged_per_pair():
    # one window, three pairs: the last octave holds 4.5%, 0.4% and 0.0% of
    # the q-th powers, against the q% rule of each pair
    amp = canonical_band_amplitude(2, 0)
    pairs = [(10.0 / 3.0, 10.0 / 3.0), (4.0, 4.0), (6.0, 6.0)]
    res = band_norm_adaptive(SCH, 2, 0, amp, pairs, T0=128.0, max_doublings=0)
    assert [res[p].converged for p in pairs] == [False, True, True]


def test_adaptive_band_norm_rejects_infinite_q():
    # the time norm must be finite: L^inf_t has no octave powers to sum
    amp = canonical_band_amplitude(2, 0)
    with pytest.raises(OutOfRangeQ):
        band_norm_adaptive(SCH, 2, 0, amp, [(math.inf, math.inf)], T0=4.0, max_doublings=0)


def test_annulus_window_restriction():
    amp = canonical_band_amplitude(2, 0)
    j = 5
    sampler = BandFieldSampler(SCH, 2, 0, amp, T=64.0, r_window=(2.0 ** (j - 1), 2.0**j))
    assert sampler.r_in.size == 0
    assert sampler.r_out[0] >= 2.0 ** (j - 1) - 1e-9
    norm, powers = sampler.norms([(4.0, 4.0)])[(4.0, 4.0)]
    assert norm > 0
