import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsl
from rsl import fastfield
from rsl.bessel import HANKEL_X_MIN, hankel_phase_coeffs
from rsl.dispersion import get_symbol
from rsl.errors import OutOfRangeQ
from rsl.estimates import canonical_band_amplitude
from rsl.fastfield import (BandFieldSampler, SamplerConfig, band_norm_adaptive, chirp_z,
                           octave_ladder)
from rsl.grids import (PANEL_ORDER, PhysicalGrid, band_edges, gauss_legendre, gauss_panel_grid,
                       uniform_grid)
from rsl.propagator import evolve
from rsl.transform import profile_from_fn, radial_norm

SCH = get_symbol("schrodinger")


def _czt(c, s0, ds, r0, dr, m, sign):
    """sum_m c[m] e^{i sign r_j s_m} on r_j = r0 + j dr, s_m = s0 + m ds through
    `chirp_z`, the minus sign as the plan on the reflected radii -r_j."""
    s = s0 + ds * np.arange(c.size)
    return chirp_z(s, sign * r0, sign * dr, m)(c)


def test_czt_matches_direct_sum():
    rng = np.random.default_rng(1)
    n, m = 73, 41
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s0, ds, r0, dr = 0.4, 0.013, 2.7, 0.21
    s = s0 + ds * np.arange(n)
    r = r0 + dr * np.arange(m)
    for sign in (+1.0, -1.0):
        direct = np.array([np.sum(c * np.exp(1j * sign * rj * s)) for rj in r])
        fast = _czt(c, s0, ds, r0, dr, m, sign)
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
        fast = _czt(c, s0, ds, r0, dr, m, sign)
        assert np.max(np.abs(fast - direct)) / np.sum(np.abs(c)) < 1e-11


def test_smooth_length_is_scipy_real_next_fast_len():
    # the chirp-Z padding: the smallest 2-3-5-smooth length
    from scipy.fft import next_fast_len

    assert [fastfield._smooth_length(n) for n in range(1, 20001)] == \
        [next_fast_len(n, real=True) for n in range(1, 20001)]


@pytest.mark.parametrize("rows, n, m", [(9, 700, 741), (9, 540, 541), (1, 432, 433)])
def test_czt_on_numpy_fft_is_bitwise_scipy_fft(monkeypatch, rows, n, m):
    # the sweeps' transform shapes (2, 9, 1440), (2, 9, 1080) and (2, 1, 864):
    # the plan and its output (numpy.fft in place on a zero-padded buffer)
    # equal the scipy.fft path (padding by its n argument), bitwise
    from scipy import fft as sfft

    rng = np.random.default_rng(4)
    s = np.linspace(0.5, 2.0, n)
    pre, post = rng.standard_normal(n), rng.standard_normal(m)
    x = rng.standard_normal((2, rows, n)) + 1j * rng.standard_normal((2, rows, n))
    plan = chirp_z(s, 3.25, np.pi / 12.0, m, pre, post)
    assert plan.kernel.size == fastfield._smooth_length(n + m - 1)
    out = plan(x)
    y = sfft.fft(x * plan.pre, plan.kernel.size, axis=-1)
    y *= plan.kernel
    assert np.array_equal(out, sfft.ifft(y, axis=-1)[..., :m] * plan.post)
    monkeypatch.setattr(fastfield, "fft", sfft.fft)
    assert np.array_equal(plan.kernel, chirp_z(s, 3.25, np.pi / 12.0, m, pre, post).kernel)


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
        fast = sampler.field_at(t)[sampler.r_in.size:]
        ref = _outer_field_direct(sampler, n, t)
        assert np.max(np.abs(fast - ref)) / np.max(np.abs(ref)) < 1e-10


# one small call on each path the benchmark runs, in a fresh interpreter
_BENCH_PATHS = """
from fractions import Fraction
import numpy as np
from rsl import bessel
from rsl.dispersion import get_symbol
from rsl.estimates import canonical_band_amplitude, maximal_check
from rsl.fastfield import BandFieldSampler
from rsl.grids import PhysicalGrid, gauss_panel_grid
from rsl.nonlinear import (fnls_experiment, nls_small_data_experiment,
                           nlw_small_data_experiment)
from rsl.propagator import evolve
from rsl.transform import fourier_bessel, profile_from_fn

table = (gauss_panel_grid(0.25, 4.5, 80).nodes, np.linspace(0.0, 60.0, 1201))
pointwise = (np.geomspace(0.05, 20.0, 50), np.geomspace(0.05, 20.0, 60))
assert bessel._table_plan(2, *table) is not None and bessel._table_plan(2, *pointwise) is None
for n in (2, 3, 4, 5):
    bessel.kernel_matrix(n, *table)
    bessel.kernel_matrix(n, *pointwise)
sch = get_symbol("schrodinger")
sampler = BandFieldSampler(sch, 2, 0, canonical_band_amplitude(2, 0), 16.0)
assert sampler.r_out.size
sampler.field_at(sampler.t[1])
nls_small_data_experiment(2, Fraction(-1, 10), 1e-3, seeds=range(1), T=2.0)
fnls_experiment(2, 1.5, 1.5, 0.0, 1e-3, seeds=range(1), T=2.0)
nlw_small_data_experiment(2, Fraction(3, 10), 1e-3, seeds=range(1), T=2.0)
grid = gauss_panel_grid(1e-6, 14.0, 700)
for n in (2, 3):
    prof = profile_from_fn(lambda s: np.exp(-s**2 / 2.0), grid, n)
    evolve(sch, prof, None, PhysicalGrid(np.linspace(1e-6, 8.0, 41), np.array([0.0, 0.7])))
    fourier_bessel(prof, np.linspace(0.05, 3.0, 60))
maximal_check(2.0, range(2, 4))
"""

# J_nu, its envelopes and the asymptotic split, which need no scipy either
_BESSEL_PATHS = """
from rsl.bessel import bessel_asymptotic_split, bessel_bound_check, bessel_j
for nu in (0.0, 0.5, 1.0, 1.5):
    bessel_j(nu, np.geomspace(1e-3, 1e3, 50))
bessel_bound_check(0.0, np.geomspace(1e-3, 1e3, 50))
for n in (2, 3, 4, 5, 6):
    for r in (1.0, 3.7, 250.0):
        bessel_asymptotic_split(n, r)
"""


def _fresh_modules(code):
    src = str(Path(rsl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_skips_scipy_signal_and_integrate():
    # importing the package stays cheap: it loads no scipy module at all, and
    # every n = 2..5 path the benchmark runs (kernel matrices on the table
    # and the pointwise path, a sampler slice, the three Picard solvers, the
    # dense transforms and the maximal check) still loads none, nor do
    # bessel_j, bessel_bound_check and the split; scipy.special is imported
    # on first use by the n >= 6 kernels only
    assert _fresh_modules("import rsl") == "[]"
    assert _fresh_modules("import rsl\n" + _BENCH_PATHS + _BESSEL_PATHS) == "[]"


CATALOG_CASES = [
    ("schrodinger", 2, 0, None),
    ("schrodinger", 3, -1, None),
    ("wave", 3, 1, None),
    ("klein-gordon", 4, 2, None),
    ("beam", 5, -2, None),
    ("fourth-order", 2, 1, None),
    ("fractional:1.5", 2, 0, None),
    ("schrodinger", 4, 0, (8.0, 16.0)),     # below r_c = 16: the dense block
    ("schrodinger", 4, 1, (8.0, 16.0)),     # above r_c = 8: the chirp-Z block
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
    sel = slice(0, None, max(sampler.r.size // 40, 1))
    r = sampler.r[sel]
    times = np.array([0.0, T / 2, T])
    ref = evolve(sym, prof, None, PhysicalGrid(np.maximum(r, 1e-12), times)).values
    for t, ref_t in zip(times, ref):
        vals = sampler.field_at(t)[sel]
        assert np.max(np.abs(vals - ref_t)) / np.max(np.abs(ref_t)) < 1e-7


def test_sampler_mass_conservation():
    amp = canonical_band_amplitude(2, 0)
    sampler = BandFieldSampler(SCH, 2, 0, amp, T=8.0)
    for t in (0.0, 3.0, 8.0):
        assert sampler.mass_at(t) == pytest.approx(sampler.mass_true, rel=2e-4)


def test_sampler_mass_without_alias_at_long_window():
    # the wave band has no carrier residual, so the residual rule alone keeps
    # 515 nodes and a frequency-sum period 2 pi / ds of about 2,153; at
    # T = 1000 the incoming packet then reappears at r = 2153 - t inside the
    # sampled range and doubles the mass at t = T
    wave = get_symbol("wave")
    sampler = BandFieldSampler(wave, 3, 0, canonical_band_amplitude(3, 0), T=1000.0)
    assert 2.0 * np.pi / sampler.ds >= sampler.r[-1] + 1000.0
    assert sampler.mass_at(1000.0) == pytest.approx(sampler.mass_true, rel=2e-4)


def test_sampler_refinement_stability():
    amp = canonical_band_amplitude(2, 0)
    base = BandFieldSampler(SCH, 2, 0, amp, T=8.0).norms([4.0])[4.0][0]
    fine = BandFieldSampler(SCH, 2, 0, amp, T=8.0, config=SamplerConfig().refined()).norms(
        [4.0]
    )[4.0][0]
    assert abs(base - fine) / fine < 1e-3


@pytest.mark.parametrize("T, beat, steps, cap", [
    (16.0, 3.75, 3.0, 24),     # Schrodinger band 0 at the sampler default
    (5.0, 3.75, 3.0, 24),      # T below 16 dt0: the first piece alone
    (4096.0, 3.75, 3.0, 24),   # the cap binds on the late octaves
    (512.0 / 1.5, 1.5, 8.0, 64),  # the smoothing check's own arguments
])
def test_octave_ladder_gauss_pieces(T, beat, steps, cap):
    t, wt, octave_of = octave_ladder(T, beat, steps, cap)
    assert np.sum(wt) == pytest.approx(T, rel=1e-13)
    assert np.all(t > 0) and np.all(t < T) and np.all(np.diff(t) > 0)
    # the pieces: [0, 16 dt0], then octaves [lo, min(2 lo, T)]
    dt0 = 2.0 * np.pi / (steps * beat)
    edges = [0.0, min(16.0 * dt0, T)]
    while edges[-1] < T * (1 - 1e-12):
        edges.append(min(2.0 * edges[-1], T))
    assert np.array_equal(np.unique(octave_of), np.arange(len(edges) - 1))
    assert np.all(np.diff(octave_of) >= 0)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        x = t[octave_of == i]
        w = wt[octave_of == i]
        c = x.size
        assert 16 <= c and (i == 0 or c <= cap)
        assert lo < x[0] and x[-1] < hi
        # Gauss-Legendre: exact for polynomials of degree <= 2c - 1
        u = (2.0 * x - (lo + hi)) / (hi - lo)
        for d in range(2 * c):
            exact = 0.5 * (hi - lo) * (1 - (-1) ** (d + 1)) / (d + 1)
            assert abs(np.sum(w * u ** d) - exact) <= 1e-12 * (hi - lo)


def test_gauss_legendre_rules_are_cached_and_bitwise(monkeypatch):
    # one read-only rule per node count, shared by the composite grids and
    # the time ladders, with numpy's nodes and weights bit for bit
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(count):
        calls.append(count)
        return leggauss(count)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    gauss_legendre.cache_clear()
    try:
        for _ in range(3):
            grid = gauss_panel_grid(0.5, 2.0, 7)
            t, wt, _ = octave_ladder(64.0, 3.75, 3.0, 24)
        assert sorted(calls) == sorted(set(calls)) and PANEL_ORDER in calls
        x, w = gauss_legendre(PANEL_ORDER)
        assert not x.flags.writeable and not w.flags.writeable
        ref_x, ref_w = leggauss(PANEL_ORDER)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        # the grid as built from numpy's rule directly
        edges = np.linspace(0.5, 2.0, 8)
        mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
        assert np.array_equal(grid.nodes, (mid[:, None] + half[:, None] * ref_x).ravel())
        assert np.array_equal(grid.weights, (half[:, None] * ref_w).ravel())
    finally:
        gauss_legendre.cache_clear()


TIME_INTEGRAL_CASES = [
    ("schrodinger", 2, 16.0, None),
    ("schrodinger", 2, 16.0, (0.5, 1.0)),
    ("wave", 3, 16.0, None),
    ("klein-gordon", 4, 16.0, None),
    ("beam", 5, 8.0, None),
]


@pytest.mark.parametrize("name, n, T, r_window", TIME_INTEGRAL_CASES)
def test_sampler_time_integral_matches_simpson(name, n, T, r_window):
    # the norms' time rule against composite Simpson on 3,201 uniform times
    # of the same sampler's slices (converged: 6,401 times agree to 1e-13).
    # q = 4 and 6 integrate polynomials in F and its conjugate, analytic in
    # t, and the Gauss pieces reach 3e-10 and 6e-9 at the default ladder.
    # |F|^(10/3) is not analytic where F vanishes, so at q = 10/3 they reach
    # 4e-9 to 2.7e-7 (wave).  A composite trapezoid ladder at (6, 48) errs
    # by up to 1.1e-5 there and by up to 2.5e-6 at q = 4
    qs = (10.0 / 3.0, 4.0, 6.0)
    sampler = BandFieldSampler(get_symbol(name), n, 0, canonical_band_amplitude(n, 0), T=T,
                               r_window=r_window)
    got = sampler.norms(qs)
    t, dt = np.linspace(0.0, T, 3201, retstep=True)
    w = np.where(np.arange(t.size) % 2, 4.0, 2.0) * dt / 3.0
    w[0] = w[-1] = dt / 3.0
    ref = dict.fromkeys(qs, 0.0)
    for ti, wi in zip(t, w):
        f = sampler.field_at(ti)
        for q in qs:
            ref[q] += 2.0 * wi * radial_norm(f, sampler.measure, n, q) ** q
    for q, tol in zip(qs, (1e-6, 1e-8, 1e-8)):
        want = ref[q] ** (1.0 / q)
        assert abs(got[q][0] - want) / want < tol


def test_default_ladder_slice_count():
    # Schrodinger n = 2, band 0, T = 16 at the default (3, 24): 17 Gauss
    # nodes on [0, 16 dt0] and 16 on [16 dt0, 16]
    sampler = BandFieldSampler(SCH, 2, 0, canonical_band_amplitude(2, 0), T=16.0)
    assert sampler.t.size == 33
    assert np.bincount(sampler.octave_of).tolist() == [17, 16]


def test_adaptive_band_norm_converges():
    amp = canonical_band_amplitude(2, 0)
    res = band_norm_adaptive(SCH, 2, 0, amp, [4.0], T0=16.0, max_doublings=4)
    r = res[4.0]
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
    res = band_norm_adaptive(SCH, 2, 0, amp, [2.0], T0=16.0, max_doublings=1)
    r = res[2.0]
    assert r.octave_powers[-1] >= r.octave_powers[-2]
    assert r.nonconvergent and not r.converged
    assert r.extrapolated is None


def test_adaptive_band_norm_converged_per_pair():
    # one window, three exponents: the last octave holds 4.6%, 0.4% and 0.0%
    # of the q-th powers, against the q% rule of each exponent
    amp = canonical_band_amplitude(2, 0)
    qs = [10.0 / 3.0, 4.0, 6.0]
    res = band_norm_adaptive(SCH, 2, 0, amp, qs, T0=128.0, max_doublings=0)
    assert [res[q].converged for q in qs] == [False, True, True]


def test_adaptive_band_norm_rejects_infinite_q():
    # the time norm must be finite: L^inf_t has no octave powers to sum
    amp = canonical_band_amplitude(2, 0)
    with pytest.raises(OutOfRangeQ):
        band_norm_adaptive(SCH, 2, 0, amp, [math.inf], T0=4.0, max_doublings=0)


def test_annulus_window_restriction():
    amp = canonical_band_amplitude(2, 0)
    j = 5
    sampler = BandFieldSampler(SCH, 2, 0, amp, T=64.0, r_window=(2.0 ** (j - 1), 2.0**j))
    assert sampler.r_in.size == 0
    assert sampler.r_out[0] >= 2.0 ** (j - 1) - 1e-9
    norm, powers = sampler.norms([4.0])[4.0]
    assert norm > 0


def test_outer_grid_ends_on_window_edge():
    # the outer radius grid spans exactly its annulus window, so Simpson
    # integrates [16, 32] and not a window shifted by up to one step
    amp = canonical_band_amplitude(2, 0)
    q = 10.0 / 3.0
    base = BandFieldSampler(SCH, 2, 0, amp, T=128.0, r_window=(16.0, 32.0))
    fine = BandFieldSampler(SCH, 2, 0, amp, T=128.0, r_window=(16.0, 32.0),
                            config=SamplerConfig().refined())
    for sampler in (base, fine):
        assert sampler.r_in.size == 0
        assert sampler.r_out[0] == 16.0
        assert abs(sampler.r_out[-1] - 32.0) <= 1e-12
    nb, nf = base.norms([q])[q][0], fine.norms([q])[q][0]
    assert abs(nb - nf) / nf < 1e-4


def test_inner_block_real_product_matches_complex():
    # the inner block runs as one real product over stacked real and
    # imaginary rows; it must equal the complex product it replaces
    amp = canonical_band_amplitude(2, 0)
    sampler = BandFieldSampler(SCH, 2, 0, amp, T=16.0)
    n_in = sampler.r_in.size
    assert n_in > 0
    for t in (0.0, 1.3, 16.0):
        ref = (sampler.g_in * np.exp(1j * t * sampler.phis_in)) @ sampler.K_in
        fast = sampler.field_at(t)[:n_in]
        assert np.max(np.abs(fast - ref)) / np.max(np.abs(ref)) < 1e-14


def test_inner_block_runs_at_every_slice():
    # wave band 0 at T = 200: the inner frequency grid resolves the phase
    # t phi(s) over the whole window, and the inner block is evaluated at
    # the last slices as at the first
    wave = get_symbol("wave")
    T = 200.0
    sampler = BandFieldSampler(wave, 2, 0, canonical_band_amplitude(2, 0), T=T)
    kappa = 0.9 * sampler.config.phase_step
    assert (sampler.s_in[1] - sampler.s_in[0]) * T * wave.sup_dphi(*band_edges(0)) <= kappa
    n_in = sampler.r_in.size
    # the field there has decayed to 1e-7 by cancellation: rounding is
    # measured against the sum of the terms' moduli
    scale = np.max(np.abs(sampler.g_in) @ np.abs(sampler.K_in))
    for t in (150.0, T):
        ref = (sampler.g_in * np.exp(1j * t * sampler.phis_in)) @ sampler.K_in
        fast = sampler.field_at(t)[:n_in]
        assert np.max(np.abs(ref)) > 1e-9 * scale
        assert np.max(np.abs(fast - ref)) <= 1e-14 * scale
