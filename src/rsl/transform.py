"""Radial frequency profiles and the Fourier-Bessel transform.

Conventions (fixed once, used everywhere):

  * A profile h(s) represents radial frequency-side data of a function on
    R^n.  The synthesis map to physical radius r is the self-inverse
    normalized transform

        T[h](r) = int_0^inf h(s) K_n(s r) s^(n-1) ds,
        K_n(x)  = x^(-(n-2)/2) J_((n-2)/2)(x),

    i.e. the e^{-ix.xi} Fourier convention with the constant (2 pi)^(n/2)
    absorbed into h.  T[T[h]] = h, and the Gaussian e^{-s^2/2} is a fixed
    point in every dimension.

  * Norms carry the full spherical measure: the frequency-side L^2 norm is

        l2_norm(h)^2 = omega_{n-1} int |h(s)|^2 s^(n-1) ds,

    with omega_{n-1} = |S^(n-1)| (so c_2 = 2 pi), and Plancherel holds
    exactly against the physical-side norm omega_{n-1} int |T h|^2 r^(n-1) dr.

  * Every radial norm in the package is one reduction, `radial_norm`:
    (omega_{n-1} sum m |F|^r)^(1/r) against a quadrature measure m, which is
    w r^(n-1) on the physical side and w s^(2 sigma + n - 1) for the
    H^sigma-dot norm on the frequency side (`sobolev_norm`).
    `spacetime_norm` applies the L^q time reduction to the rows of a
    (t, r) sample array; this module owns every norm of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .bessel import kernel_apply
from .cutoffs import dyadic_cutoff
from .grids import FrequencyGrid, band_edges, require_resolution, uniform_grid


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def radial_norm(values: np.ndarray, measure: np.ndarray, n: int, r: float):
    """(omega_{n-1} sum measure |values|^r)^(1/r) along the last axis, or
    max |values| for r = inf: one norm for a 1-D sample vector, one per row
    for a 2-D array."""
    a = np.abs(values)
    if math.isinf(r):
        return a.max(axis=-1)
    return (sphere_area(n) * (a**r @ measure)) ** (1.0 / r)


def spacetime_norm(
    values: np.ndarray, measure: np.ndarray, wt: np.ndarray, n: int, q: float, r: float
) -> float:
    """L^q_t L^r_x norm of samples values[t_i, r_j]: (sum_i wt_i inner_i^q)^(1/q),
    or max_i inner_i for q = inf, with inner_i the `radial_norm` of row i
    against the radial measure (weights times r^(n-1))."""
    inner = radial_norm(values, measure, n, r)
    if math.isinf(q):
        return float(inner.max())
    return float(np.sum(wt * inner**q) ** (1.0 / q))


@dataclass(frozen=True)
class RadialProfile:
    """Frequency-side samples h(s) on a quadrature grid, ambient dimension n.

    `fn`, when present, is the analytic generator of the samples; operations
    that need their own quadrature nodes (e.g. the propagator) re-evaluate it
    instead of interpolating.
    """

    grid: FrequencyGrid
    values: np.ndarray
    n: int
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match grid nodes")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("profile values must be finite")
        if self.n < 2:
            raise ValueError("ambient dimension must be >= 2")

    def at(self, s: np.ndarray) -> np.ndarray:
        """h(s) from `fn` when present, else by linear interpolation of the
        real and imaginary parts of the samples."""
        if self.fn is not None:
            return np.asarray(self.fn(s), dtype=complex)
        nodes = self.grid.nodes
        return np.interp(s, nodes, self.values.real) + 1j * np.interp(s, nodes, self.values.imag)


def profile_from_fn(fn, grid: FrequencyGrid, n: int) -> RadialProfile:
    return RadialProfile(grid, np.asarray(fn(grid.nodes), dtype=complex), n, fn=fn)


def project(profile: RadialProfile, k: int) -> RadialProfile:
    """Littlewood-Paley piece: multiply by the band-k cutoff psi(2^-k s)."""
    cut = dyadic_cutoff(k, profile.grid.nodes)
    if profile.fn is not None:
        fn = profile.fn
        return replace(profile, values=profile.values * cut,
                       fn=lambda s, _f=fn, _k=k: _f(s) * dyadic_cutoff(_k, s))
    return replace(profile, values=profile.values * cut, fn=None)


def l2_norm(profile: RadialProfile) -> float:
    """(omega_{n-1} int |h|^2 s^(n-1) ds)^(1/2); equals the physical L^2 norm."""
    g = profile.grid
    return float(radial_norm(profile.values, g.weights * g.nodes ** (profile.n - 1), profile.n, 2))


def sobolev_norm(profile: RadialProfile, s: float) -> float:
    """Homogeneous H^s norm: (omega int s^(2s) |h|^2 s^(n-1) ds)^(1/2), same
    convention constant as l2_norm (s = 0 reduces to it)."""
    g = profile.grid
    measure = g.weights * g.nodes ** (2.0 * s + profile.n - 1)
    return float(radial_norm(profile.values, measure, profile.n, 2))


def fourier_bessel(profile: RadialProfile, r) -> np.ndarray:
    """Evaluate T[h](r) by quadrature on the profile's own grid, as one
    `bessel.kernel_apply` product.

    The grid must resolve the kernel oscillation at the largest radius
    (`grids.require_resolution` at grids.PHASE_STEP).
    """
    r = np.asarray(r, dtype=float)
    g = profile.grid
    if r.size:
        require_resolution(g, float(np.max(r)))
    return kernel_apply(profile.n, r, g.nodes, g.weights * profile.values * g.nodes ** (profile.n - 1))


def canonical_band_amplitude(n: int, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The default measurement datum: h = psi_k(s) s^(-(n-1)/2), normalized to
    unit L^2.  Flat across the band after the s^(n-1) measure is folded in."""
    lo, hi = band_edges(k)
    # normalization: omega * int psi_k^2 ds, computed on a fine reference grid
    s_ref = np.linspace(lo, hi, 8001)
    z2 = sphere_area(n) * np.trapezoid(dyadic_cutoff(k, s_ref) ** 2, s_ref)
    z = float(np.sqrt(z2))

    def amp(s, _k=k, _n=n, _z=z):
        s = np.asarray(s, dtype=float)
        return dyadic_cutoff(_k, s) * s ** (-(_n - 1) / 2.0) / _z

    return amp


def canonical_band_profile(n: int, k: int) -> RadialProfile:
    """The canonical band datum on 2049 uniform nodes across the band."""
    grid = uniform_grid(*band_edges(k), 2049)
    return profile_from_fn(canonical_band_amplitude(n, k), grid, n)
