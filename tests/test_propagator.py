from fractions import Fraction

import numpy as np
import pytest

from rsl.admissibility import choose_pairs_nlw
from rsl.cutoffs import smooth_bump
from rsl.dispersion import fractional_symbol, get_symbol
from rsl.errors import QuadratureUnderresolved, SplitDomainError
from rsl.fastfield import SamplerConfig
from rsl.grids import (PANEL_ORDER, PhysicalGrid, band_edges, gauss_lobatto, gauss_panel_grid,
                       lobatto_panels, panel_grid, require_resolution, time_panel_grid,
                       trapezoid_weights, uniform_grid)
from rsl.nonlinear import DATA_BAND, FREQ_REACH_MARGIN, build_solver_grid
from rsl.propagator import (
    duhamel_coefficients,
    duhamel_table,
    evolve,
    main_error_split,
    oracle_wave_cosine_3d,
)
from rsl.transform import (
    RadialProfile,
    canonical_band_amplitude,
    canonical_band_profile,
    fourier_bessel,
    l2_norm,
    profile_from_fn,
    project,
    radial_norm,
    spacetime_norm,
)

SCH = get_symbol("schrodinger")


def test_evolve_identity_at_time_zero():
    prof = canonical_band_profile(2, 0)
    r = np.linspace(1e-6, 30.0, 400)
    fld = evolve(SCH, prof, 0, PhysicalGrid(r, np.array([0.0, 1.0])))
    direct = fourier_bessel(project(prof, 0), r)
    np.testing.assert_allclose(fld.values[0], direct, atol=1e-10)


def test_complex_gaussian_oracle():
    # phi = s^2 on the Gaussian: T[e^{-a s^2}](r) = (2a)^{-n/2} e^{-r^2/(4a)},
    # a = 1/2 - i t (completing the square in the multiplier)
    n = 2
    g = gauss_panel_grid(1e-6, 14.0, 700)
    prof = profile_from_fn(lambda s: np.exp(-(s**2) / 2.0), g, n)
    t = np.array([0.0, 0.7, 2.0, 5.0])
    r = np.linspace(1e-6, 8.0, 41)
    fld = evolve(SCH, prof, None, PhysicalGrid(r, t))
    a = 0.5 - 1j * t[:, None]
    oracle = (2 * a) ** (-n / 2.0) * np.exp(-(r[None, :] ** 2) / (4 * a))
    err = np.max(np.abs(fld.values - oracle)) / np.max(np.abs(oracle))
    assert err < 1e-6


def test_unitarity_of_time_slices():
    prof = canonical_band_profile(2, 0)
    proj = project(prof, 0)
    target = l2_norm(proj)
    r = np.linspace(1e-6, 140.0, 5000)
    fld = evolve(SCH, prof, 0, PhysicalGrid(r, np.array([0.0, 4.0, 9.0])))
    l2 = radial_norm(fld.values, trapezoid_weights(r) * r, 2, 2)
    np.testing.assert_allclose(l2, target, rtol=1e-4)


def test_time_translation_covariance():
    # evolving to t1 + t2 equals evolving the t1 multiplier by t2
    prof = canonical_band_profile(2, 0)
    r = np.linspace(1e-6, 25.0, 200)
    t1, t2 = 1.3, 0.9
    fld_sum = evolve(SCH, prof, 0, PhysicalGrid(r, np.array([0.0, t1 + t2])))

    def shifted(s, _fn=prof.fn):
        return _fn(s) * np.exp(1j * t1 * SCH.phi(np.asarray(s, dtype=float)))

    prof2 = profile_from_fn(shifted, prof.grid, 2)
    fld_two = evolve(SCH, prof2, 0, PhysicalGrid(r, np.array([0.0, t2])))
    np.testing.assert_allclose(fld_sum.values[1], fld_two.values[1], atol=1e-10)


def test_scaling_covariance_pure_power():
    # F[k; t, r] = 2^{nk/2} F[0; 2^{ak} t, 2^k r] on the rescaled profile
    n, k, a = 2, 2, 2
    prof_k = canonical_band_profile(n, k)
    r0 = np.linspace(1.0 / 64, 12.0, 160)
    t0 = np.array([0.0, 0.25, 1.0])
    grid_k = PhysicalGrid(r0 * 2.0 ** (-k), t0 * 2.0 ** (-a * k))
    fld_k = evolve(SCH, prof_k, k, grid_k)

    def rescaled(s, _fn=prof_k.fn):
        return 2.0 ** (n * k / 2.0) * _fn(2.0**k * np.asarray(s, dtype=float))

    grid_0_freq = uniform_grid(0.5, 2.0, prof_k.grid.nodes.size)
    prof_0 = profile_from_fn(rescaled, grid_0_freq, n)
    fld_0 = evolve(SCH, prof_0, 0, PhysicalGrid(r0, t0))
    np.testing.assert_allclose(
        fld_k.values, 2.0 ** (n * k / 2.0) * fld_0.values, rtol=1e-8, atol=1e-12
    )


def test_nyquist_robustness():
    # the projected path's panel grid against the projected profile sampled
    # on four times as many panels
    prof = canonical_band_profile(2, 0)
    r = np.linspace(1e-6, 20.0, 150)
    grid = PhysicalGrid(r, np.array([0.0, 2.0]))
    base = evolve(SCH, prof, 0, grid)
    coarse = panel_grid(*band_edges(0), 2.0 * SCH.sup_dphi(*band_edges(0)) + 20.0, "band 0")
    panels = gauss_panel_grid(*band_edges(0), 4 * coarse.nodes.size // PANEL_ORDER)
    fine = evolve(SCH, profile_from_fn(project(prof, 0).fn, panels, 2), None, grid)
    scale = np.max(np.abs(base.values))
    assert np.max(np.abs(base.values - fine.values)) / scale < 1e-6


def test_refinement_limit_raises():
    prof = canonical_band_profile(2, 0)
    r = np.linspace(1e-6, 20.0, 8)
    # |t| <= 1e6 needs 15M band-grid nodes, past grids.NODE_LIMIT
    with pytest.raises(QuadratureUnderresolved, match="band 0"):
        evolve(SCH, prof, 0, PhysicalGrid(r, np.array([0.0, 1e6])))


def test_underresolved_profile_grid_raises():
    # six Gauss panels on [1/2, 2] carry 6.1 rad per node step at r = 5,
    # t = 40: the sum came out |F| = 5.8e-4 where the field is 4.4e-5
    prof = profile_from_fn(canonical_band_amplitude(2, 0), gauss_panel_grid(0.5, 2.0, 6), 2)
    with pytest.raises(QuadratureUnderresolved, match="per node step"):
        evolve(SCH, prof, None, PhysicalGrid(np.array([5.0]), np.array([40.0])))


def _band(k, rate):
    return panel_grid(*band_edges(k), rate, f"band {k}"), rate


def _solver(symbol, p, T, real_field):
    """build_solver_grid's frequency grid for the data band at time T (n = 2)
    and the phase rate of its reach."""
    v = symbol.sup_dphi(*DATA_BAND)
    grid = build_solver_grid(2, DATA_BAND, p, T, symbol, real_field=real_field)
    return grid.freq, 1.15 * T * v + FREQ_REACH_MARGIN


P_NLW = float(choose_pairs_nlw(2, Fraction(3, 10)).p)
# band grids of the dense path (band 40 at a rate far below 1 rad per unit
# s), and the solver frequency grids of the bench (T = 4) and criterion 11
# (T = 16) problems
PANEL_GRID_CASES = {
    "band-3": lambda: _band(-3, 0.5),
    "band0": lambda: _band(0, 208.0),
    "band2": lambda: _band(2, 4000.0),
    "band5": lambda: _band(5, 31.0),
    "band40": lambda: _band(40, 208.0 * 2.0**-40),
    **{f"{kind}-T{T:g}": (lambda sym=sym, p=p, T=T, kind=kind: _solver(sym, p, T, kind == "nlw"))
       for kind, sym, p in (("nls", SCH, 20.0 / 11.0), ("fnls", fractional_symbol(1.5), 1.5),
                            ("nlw", get_symbol("wave"), P_NLW))
       for T in (4.0, 16.0)},
}


@pytest.mark.parametrize("case", sorted(PANEL_GRID_CASES))
def test_panel_grid_passes_require_resolution(case):
    require_resolution(*PANEL_GRID_CASES[case]())


@pytest.mark.parametrize("phase_step", [0.0, -0.1, np.pi / 2])
def test_phase_step_outside_range_raises(phase_step):
    with pytest.raises(ValueError, match="phase step"):
        SamplerConfig(phase_step=phase_step)


def test_split_reassembly_and_domain():
    prof = canonical_band_profile(2, 0)
    grid = PhysicalGrid(np.linspace(8.0, 16.0, 200), np.linspace(-4.0, 4.0, 9))
    m, e = main_error_split(SCH, prof, 0, grid)
    f = evolve(SCH, prof, 0, grid)
    rel = np.max(np.abs(m.values + e.values - f.values)) / np.max(np.abs(f.values))
    assert rel < 1e-6
    assert m.source == "main_term" and e.source == "error_term"
    # r*s < 1 somewhere -> refuse
    with pytest.raises(SplitDomainError):
        main_error_split(SCH, prof, 0, PhysicalGrid(np.linspace(0.5, 2.0, 30), np.array([0.0, 1.0])))


def test_error_term_annulus_decay_slope():
    # L^2_{t,x}(R x A_j) of the error term decays in j with slope about -1/2
    prof = canonical_band_profile(2, 0)
    logs = []
    for j in range(3, 8):
        r = np.linspace(2.0 ** (j - 1), 2.0**j, 240)
        t = np.linspace(0.0, 2.0 ** (j + 1), 160)
        grid = PhysicalGrid(r, t)
        _, e = main_error_split(SCH, prof, 0, grid)
        # the half-open annulus [2^(j-1), 2^j): the last node is left out
        val = spacetime_norm(e.values[:, :-1], (trapezoid_weights(r) * r)[:-1],
                             trapezoid_weights(t), 2, 2.0, 2.0)
        logs.append(np.log2(val * np.sqrt(2.0)))  # even t-extension
    slope = np.polyfit(range(3, 8), logs, 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_main_term_sup_scaling():
    # sup over A_j of |M| is bounded by 2^{-j(n-1)/2} 2^{k/2} ||P_k u0||;
    # the canonical datum decays faster (the dispersed packet adds another
    # t^{-1/2}), so the upper-bound slope -(n-1)/2 must not be exceeded
    n, k = 2, 0
    prof = canonical_band_profile(n, k)
    sups = []
    for j in (4, 6, 8):
        r = np.linspace(2.0 ** (j - 1), 2.0**j, 300)
        t = np.linspace(0.0, 2.0 ** (j + 1), 340)
        m, _ = main_error_split(SCH, prof, k, PhysicalGrid(r, t))
        sups.append(np.log2(np.max(np.abs(m.values))))
    slope = np.polyfit((4, 6, 8), sups, 1)[0]
    assert slope <= -(n - 1) / 2.0 + 0.1
    assert slope >= -n / 2.0 - 0.1


def test_duhamel_zero_and_constant_forcing():
    g = uniform_grid(0.5, 2.0, 300)
    t, _ = lobatto_panels(5.0, 4)
    # constant forcing: coefficient -i g (e^{i t phi} - 1) / (i phi), exact
    gv = np.exp(-((g.nodes - 1.2) ** 2) * 8)
    phi = SCH.phi(g.nodes)
    coeff = duhamel_coefficients(t, np.tile(gv, (t.size, 1)).astype(complex),
                                 duhamel_table(phi, 5.0 / 4))
    closed = -1j * gv[None, :] * (np.exp(1j * np.outer(t, phi)) - 1.0) / (1j * phi[None, :])
    assert np.max(np.abs(coeff - closed)) < 1e-12


def test_duhamel_degenerate_symbol_node():
    # omega = 0 node: the weights are the plain time integrals of the
    # Lagrange basis, so constant forcing gives -i t
    omega = np.array([0.0, 1.0])
    t, _ = lobatto_panels(2.0, 3)
    forcing = np.ones((t.size, 2), dtype=complex)
    coeff = duhamel_coefficients(t, forcing, duhamel_table(omega, 2.0 / 3))
    np.testing.assert_allclose(coeff[:, 0], -1j * t, atol=1e-13)


def _lagrange(u, k, x):
    """The k-th Lagrange basis polynomial on the nodes u, at x, by its product."""
    others = np.delete(u, k)
    return np.prod((x[:, None] - others) / (u[k] - others), axis=1)


def test_duhamel_table_against_gauss_reference():
    # each weight W_jk = int_0^{tau_j} e^{i omega (tau_j - tau)} L_k(tau) dtau
    # on one 128-point Gauss rule over [0, tau_j], for |omega h| up to 60
    # and omega = 0
    h = 0.75
    omega = np.concatenate([[0.0], np.linspace(-80.0, 80.0, 97)])
    phase, table = duhamel_table(omega, h)
    u = h * (gauss_lobatto(8)[0] + 1.0) / 2.0
    y, g = np.polynomial.legendre.leggauss(128)
    ref = np.zeros_like(table)
    for j in range(1, 8):
        tau = u[j] * (y + 1.0) / 2.0
        kern = np.exp(1j * np.outer(u[j] - tau, omega)) * (u[j] / 2.0 * g)[:, None]
        for k in range(8):
            ref[j, k] = _lagrange(u, k, tau) @ kern
    assert np.max(np.abs(table - ref)) <= 1e-13 * h
    np.testing.assert_allclose(phase, np.exp(1j * np.outer(u, omega)), rtol=0, atol=1e-13)


@pytest.mark.parametrize("degree", range(9))
def test_duhamel_exact_for_polynomial_forcing(degree):
    # forcing tau^degree against -i int_0^t e^{i omega (t - tau)} tau^degree
    # dtau on a 200-point Gauss rule: exact to rounding up to the panels'
    # collocation degree 7, and not beyond it
    omega = np.array([0.0, 0.7, -3.0, 11.0])
    t, _ = lobatto_panels(3.0, 5)
    forcing = np.repeat((t ** degree)[:, None], omega.size, axis=1).astype(complex)
    coeff = duhamel_coefficients(t, forcing, duhamel_table(omega, 3.0 / 5))
    y, g = np.polynomial.legendre.leggauss(200)
    tau = np.outer(t, (y + 1.0) / 2.0)                       # (n_t, 200)
    kern = np.exp(1j * (t[:, None, None] - tau[..., None]) * omega) * tau[..., None] ** degree
    ref = -1j * np.einsum("g,tgs->ts", g, kern) * t[:, None] / 2.0
    err = np.max(np.abs(coeff - ref)) / np.max(np.abs(ref))
    if degree <= 7:
        assert err <= 1e-13, err
    else:
        assert err >= 1e-12, err


def test_duhamel_refuses_other_times():
    # the rule reads the panels off the times: uniform nodes are refused
    table = duhamel_table(np.array([1.0]), 2.0 / 3)
    with pytest.raises(ValueError, match="Lobatto panels"):
        duhamel_coefficients(np.linspace(0.0, 2.0, 22), np.ones((22, 1), dtype=complex), table)


def test_time_panel_grid_rule():
    # ceil(T rate / panel phase) panels of 8 Lobatto nodes sharing their
    # ends, whose composite weights integrate polynomials of degree 13 exactly
    t, w = time_panel_grid(4.0, 7.5, 4.0, "test")
    assert t.size == 7 * 8 + 1 and t[0] == 0.0 and t[-1] == 4.0
    assert np.all(np.diff(t) > 0)
    for degree in (0, 5, 13):
        assert abs(np.sum(w * t ** degree) - 4.0 ** (degree + 1) / (degree + 1)) \
            <= 1e-14 * 4.0 ** (degree + 1)
    assert time_panel_grid(4.0, 7.5, 6.0, "test")[0].size == 7 * 5 + 1
    assert time_panel_grid(4.0, 1e-9, 4.0, "test")[0].size == 8
    with pytest.raises(QuadratureUnderresolved, match="huge"):
        time_panel_grid(1.0, 1e9, 4.0, "huge")


def _bump_data(r):
    return smooth_bump(2.0 * np.asarray(r, dtype=float))


def test_wave_cosine_oracle_values():
    # t = 0 identity and finite speed of propagation
    r = np.linspace(0.1, 12.0, 60)
    np.testing.assert_allclose(oracle_wave_cosine_3d(_bump_data, 0.0, r), _bump_data(r))
    assert np.max(np.abs(oracle_wave_cosine_3d(_bump_data, 10.0, np.array([5.0])))) == 0.0


def test_half_wave_combination_matches_dalembert():
    n = 3
    rg = gauss_panel_grid(1e-6, 1.0, 200)
    gprof = RadialProfile(rg, _bump_data(rg.nodes), n)
    sf = gauss_panel_grid(1e-4, 240.0, 3600)
    ghat = RadialProfile(sf, fourier_bessel(gprof, sf.nodes), n)
    wave = get_symbol("wave")
    t = np.array([0.5, 1.5, 3.0, 9.0])
    r = np.linspace(0.05, 14.0, 280)
    plus = evolve(wave, ghat, None, PhysicalGrid(r, t))
    minus = evolve(wave, ghat, None, PhysicalGrid(r, -t[::-1]))
    cos_vals = (plus.values + minus.values[::-1]) / 2.0
    for i, ti in enumerate(t):
        oracle = oracle_wave_cosine_3d(_bump_data, float(ti), r)
        num = np.sqrt(np.sum(np.abs(cos_vals[i] - oracle) ** 2 * r**2))
        den = np.sqrt(np.sum(oracle**2 * r**2))
        assert num / den < 1e-5
