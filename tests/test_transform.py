import numpy as np
import pytest

from rsl.bessel import kernel_matrix
from rsl.cutoffs import smooth_bump
from rsl.errors import NonPositiveSample, QuadratureUnderresolved
from rsl.grids import FrequencyGrid, PhysicalGrid, gauss_panel_grid, trapezoid_weights, uniform_grid
from rsl.transform import (
    RadialProfile,
    canonical_band_amplitude,
    canonical_band_profile,
    fourier_bessel,
    l2_norm,
    profile_from_fn,
    project,
    sphere_area,
)


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2 * np.pi)
    assert sphere_area(3) == pytest.approx(4 * np.pi)
    assert sphere_area(4) == pytest.approx(2 * np.pi**2)


def test_frequency_grid_invariants():
    g = gauss_panel_grid(0.5, 2.0, 40)
    # integrates 1 exactly over the span
    assert np.sum(g.weights) == pytest.approx(1.5, rel=1e-13)
    g2 = uniform_grid(1.0, 3.0, 101)
    assert np.sum(g2.weights) == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(NonPositiveSample):
        FrequencyGrid(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([2.0, 1.0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("build, match", [
    # one weight for five nodes, which a weighted sum would broadcast
    (lambda: FrequencyGrid(np.linspace(0.5, 2.0, 5), np.ones(1)), "shape"),
    (lambda: FrequencyGrid(np.array([0.5, np.nan, 2.0]), np.ones(3)), "finite"),
    (lambda: FrequencyGrid(np.array([0.5, 1.0, np.inf]), np.ones(3)), "finite"),
    (lambda: FrequencyGrid(np.array([0.5, 1.0, 2.0]), np.array([1.0, np.nan, 1.0])), "finite"),
    (lambda: PhysicalGrid([1.0, np.nan, 3.0], [0.0, 1.0]), "finite"),
    (lambda: PhysicalGrid([1.0, 2.0, 3.0], [0.0, np.inf]), "finite"),
], ids=["weights-shape", "nan-node", "inf-node", "nan-weight", "nan-radius", "inf-time"])
def test_malformed_grid_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_l2_norm_convention():
    # h = 1 on [1, 2], n = 2: (2 pi int_1^2 s ds)^(1/2) = sqrt(3 pi)
    g = gauss_panel_grid(1.0, 2.0, 50)
    prof = RadialProfile(g, np.ones_like(g.nodes), 2)
    assert l2_norm(prof) == pytest.approx(np.sqrt(3 * np.pi), rel=1e-12)
    zero = RadialProfile(g, np.zeros_like(g.nodes), 2)
    assert l2_norm(zero) == 0.0


def test_l2_norm_scaling_invariance():
    # h(s) -> lam^{n/2} h(lam s) preserves the norm (change of variables)
    n = 3
    lam = 2.0
    g = gauss_panel_grid(0.25, 8.0, 200)
    f = lambda s: np.exp(-((s - 1.5) ** 2) * 3.0)
    p1 = RadialProfile(g, f(g.nodes), n)
    g2 = gauss_panel_grid(0.25 / lam, 8.0 / lam, 200)
    p2 = RadialProfile(g2, lam ** (n / 2.0) * f(lam * g2.nodes), n)
    assert l2_norm(p1) == pytest.approx(l2_norm(p2), rel=1e-10)


def test_projector_band_support_and_disjointness():
    g = gauss_panel_grid(0.05, 40.0, 300)
    prof = RadialProfile(g, np.ones_like(g.nodes), 2)
    p0 = project(prof, 0)
    outside = (g.nodes < 0.5) | (g.nodes > 2.0)
    assert np.all(p0.values[outside] == 0)
    # disjoint supports kill the composition for |k - k'| >= 2
    p03 = project(p0, 3)
    assert np.all(p03.values == 0)
    # idempotent up to the square of the cutoff
    from rsl.cutoffs import dyadic_cutoff

    p00 = project(p0, 0)
    np.testing.assert_allclose(p00.values, dyadic_cutoff(0, g.nodes) ** 2, atol=1e-15)


def test_partition_reconstruction_l2():
    # band-limited h: summing the projections over the covering bands returns h
    g = gauss_panel_grid(0.5, 8.0, 300)
    h = np.exp(-((g.nodes - 2.0) ** 2))
    prof = RadialProfile(g, h, 2)
    total = sum(project(prof, k).values for k in range(-2, 6))
    inside = (g.nodes >= 1.0) & (g.nodes <= 4.0)
    np.testing.assert_allclose(total[inside], h[inside], atol=1e-14)


def test_gaussian_self_transform():
    for n in (2, 3, 4):
        g = gauss_panel_grid(1e-6, 14.0, 400)
        prof = profile_from_fn(lambda s: np.exp(-(s**2) / 2.0), g, n)
        r = np.linspace(0.0, 5.0, 21)
        vals = fourier_bessel(prof, r)
        np.testing.assert_allclose(vals.real, np.exp(-(r**2) / 2.0), atol=2e-10)
        assert np.max(np.abs(vals.imag)) < 1e-12


def test_transform_value_at_zero():
    # T[h](0) = int h s^{n-1} ds * K_n(0)
    n = 4
    g = gauss_panel_grid(0.5, 2.0, 60)
    prof = RadialProfile(g, np.ones_like(g.nodes), n)
    expected = np.sum(g.weights * g.nodes ** (n - 1)) * 0.5
    assert fourier_bessel(prof, 0.0) == pytest.approx(expected, rel=1e-12)


def test_round_trip_band_limited():
    n = 2
    g = gauss_panel_grid(0.25, 4.5, 320)
    prof = project(profile_from_fn(lambda s: np.exp(2j * s) / (1 + s), g, n), 0)
    r_grid = gauss_panel_grid(1e-5, 220.0, 2400)
    phys = fourier_bessel(prof, r_grid.nodes)
    back = fourier_bessel(RadialProfile(r_grid, phys, n), g.nodes)
    num = np.sqrt(np.sum(g.weights * np.abs(back - prof.values) ** 2 * g.nodes ** (n - 1)))
    den = np.sqrt(np.sum(g.weights * np.abs(prof.values) ** 2 * g.nodes ** (n - 1)))
    assert num / den < 1e-6


def test_plancherel_matches_l2_norm():
    n = 3
    prof = canonical_band_profile(n, 0)
    proj = project(prof, 0)
    r_grid = gauss_panel_grid(1e-5, 150.0, 1600)
    phys = fourier_bessel(proj, r_grid.nodes)
    phys_norm = np.sqrt(
        sphere_area(n) * np.sum(r_grid.weights * np.abs(phys) ** 2 * r_grid.nodes ** (n - 1))
    )
    assert phys_norm == pytest.approx(l2_norm(proj), rel=1e-4)


def test_underresolved_transform_raises():
    g = uniform_grid(0.5, 2.0, 12)  # far too coarse for r = 5000
    prof = RadialProfile(g, np.ones(12), 2)
    with pytest.raises(QuadratureUnderresolved):
        fourier_bessel(prof, 5000.0)


@pytest.mark.parametrize("grid, r", [
    (uniform_grid(0.5, 2.0, 101), 400.0),     # 6.0 rad per node step
    (gauss_panel_grid(0.5, 2.0, 6), 200.0),   # 7.4 rad per node step
])
def test_node_step_past_the_band_plan_bound_raises(grid, r):
    # both grids carry more than node_phase(PHASE_STEP) = 0.71 rad per node
    # step, the bound of the band plan's uniform grids; their sums come out
    # -1.3e-4 and 3.5e-3 where the transform is 5.9e-13 and 5.6e-11
    prof = profile_from_fn(canonical_band_amplitude(2, 0), grid, 2)
    with pytest.raises(QuadratureUnderresolved, match="per node step"):
        fourier_bessel(prof, r)


def _whole_matrix_product(prof, r):
    """T[h](r) as the complex product with the whole kernel matrix."""
    g = prof.grid
    return kernel_matrix(prof.n, r, g.nodes) @ (g.weights * prof.values * g.nodes ** (prof.n - 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fourier_bessel_matches_whole_matrix_product(n):
    # the real product (ten row panels for even n, the factored product for
    # odd n) equals the complex product with the whole kernel matrix to
    # rounding
    g = gauss_panel_grid(0.25, 4.5, 80)
    prof = project(profile_from_fn(lambda s: np.exp(2j * s) / (1 + s), g, n), 0)
    r = np.linspace(0.0, 60.0, 3001)
    ref = _whole_matrix_product(prof, r)
    assert np.max(np.abs(fourier_bessel(prof, r) - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_fourier_bessel_matches_whole_matrix_product_at_oracle_size():
    # the dense-oracle bench transform: a 600-node profile on 6,000 radii
    rg = gauss_panel_grid(1e-6, 1.0, 60)
    prof = RadialProfile(rg, smooth_bump(2.0 * rg.nodes), 3)
    r = gauss_panel_grid(1e-4, 240.0, 600).nodes
    ref = _whole_matrix_product(prof, r)
    assert np.max(np.abs(fourier_bessel(prof, r) - ref)) <= 2e-15 * np.max(np.abs(ref))
