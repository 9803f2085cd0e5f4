"""The radial dispersive propagator and its main/error decomposition.

The group e^{i t phi(sqrt(-Delta))} acts on a band-k radial profile h as the
one-dimensional oscillatory integral

    F(t, r) = int_0^inf e^{i t phi(s)} psi_k(s) h(s) s^(n-1) K_n(s r) ds,

with K_n the radial Fourier kernel.  The multiplier convention is e^{+i t phi},
so the catalog entry phi(s) = s^2 realizes the group with symbol e^{+i t |xi|^2}.

For r s >= 1 the kernel splits into two leading oscillations plus a remainder
(see bessel.bessel_asymptotic_split); inserting the split yields the
main/error decomposition F = M + E with

    M(t,r) = r^(-(n-1)/2)/sqrt(2 pi) * [ e^{-i beta} I_+(t,r) + e^{+i beta} I_-(t,r) ],
    I_(+-)(t,r) = int psi_k h s^((n-1)/2) e^{i(t phi(s) +- r s)} ds,
    beta = (n-1) pi / 4,

and E carrying the r^(-(n+1)/2)-size residual kernels.  M + E reproduces the
direct evaluation exactly up to rounding because the kernel split is exact.

`duhamel_coefficients` gives the frequency-side retarded term with the
multiplier integrated exactly over each time step; its callers (the Picard
solvers and the retarded-estimate check) synthesize the field themselves.

A `SpaceTimeField` holds samples only.  Its norms are reductions of the
sample array (`transform.radial_norm` per time slice, `transform.spacetime_norm`
over the slab) against a measure the caller builds from its own grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bessel import complex_rows, kernel_panels, real_rows
from .cutoffs import dyadic_cutoff
from .dispersion import DispersionSymbol
from .errors import SplitDomainError
from .grids import FrequencyGrid, PhysicalGrid, band_edges, panel_grid, require_resolution
from .transform import RadialProfile


@dataclass(frozen=True)
class SpaceTimeField:
    """Samples F(t_i, r_j) of a radial space-time function: complex, or
    float64 for a real field."""

    grid: PhysicalGrid
    values: np.ndarray  # shape (n_t, n_r)
    n: int
    source: str = "direct"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.t_nodes.size, self.grid.r_nodes.size):
            raise ValueError("field shape must be (n_t, n_r)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")


def _integration_grid(
    symbol: DispersionSymbol,
    profile: RadialProfile,
    k: Optional[int],
    grid: PhysicalGrid,
) -> tuple[FrequencyGrid, np.ndarray]:
    """Frequency quadrature satisfying the Nyquist rule for the whole (t, r)
    extent, together with the projected integrand samples."""
    t_max = float(np.max(np.abs(grid.t_nodes)))
    r_max = float(np.max(grid.r_nodes))
    if k is not None:
        lo, hi = band_edges(k)
        budget = t_max * symbol.sup_dphi(lo, hi) + r_max
        fg = panel_grid(lo, hi, budget, f"band {k}")
        return fg, profile.at(fg.nodes) * dyadic_cutoff(k, fg.nodes)
    # un-projected path: integrate on the profile's own grid, checking resolution
    fg = profile.grid
    lo, hi = fg.span
    require_resolution(fg, t_max * symbol.sup_dphi(lo, hi) + r_max)
    return fg, profile.values


def evolve(
    symbol: DispersionSymbol,
    profile: RadialProfile,
    k: Optional[int],
    grid: PhysicalGrid,
) -> SpaceTimeField:
    """S_phi(t) P_k u0 on the physical grid (k=None skips the projection)."""
    fg, vals = _integration_grid(symbol, profile, k, grid)
    s, rows = _multiplier(symbol, fg, vals, grid.t_nodes, profile.n)
    out = np.empty((grid.t_nodes.size, grid.r_nodes.size), dtype=complex)
    for cols, kernel in kernel_panels(profile.n, grid.r_nodes, s):
        out[:, cols] = complex_rows(rows @ kernel.T)
    return SpaceTimeField(grid, out, profile.n, source="direct")


def _multiplier(symbol, fg, vals, t, n):
    """The quadrature nodes s and the (t, s) operand e^{i t phi(s)} h(s) w s^(n-1)
    that contracts against the kernel K_n(s r), split once into its real rows
    (`bessel.real_rows`) for every kernel panel."""
    s = fg.nodes
    return s, real_rows(np.exp(1j * np.outer(t, symbol.phi(s)))
                        * (vals * fg.weights * s ** (n - 1))[None, :])


def main_error_split(
    symbol: DispersionSymbol,
    profile: RadialProfile,
    k: int,
    grid: PhysicalGrid,
) -> tuple[SpaceTimeField, SpaceTimeField]:
    """(M, E) with M from the two leading kernel oscillations and E the exact
    residual; requires r s >= 1 on every quadrature pair."""
    fg, vals = _integration_grid(symbol, profile, k, grid)
    n = profile.n
    s, rows = _multiplier(symbol, fg, vals, grid.t_nodes, n)
    r = grid.r_nodes
    x_min = float(s.min() * r.min())   # s, r > 0: the least product
    if x_min < 1.0:
        raise SplitDomainError(f"split needs r*s >= 1 everywhere; min r*s = {x_min:.3g}")
    nu = (n - 2) / 2.0
    beta = (n - 1) * np.pi / 4.0
    main = np.empty((grid.t_nodes.size, r.size), dtype=complex)
    err = np.empty_like(main)
    for cols, kernel in kernel_panels(n, r, s):
        # main kernel: (sr)^(-(n-2)/2) sqrt(2/(pi sr)) cos(sr - beta); the
        # error kernel is what the exact one leaves
        x = np.multiply.outer(r[cols], s)
        kern_main = x ** (-nu) * np.sqrt(2.0 / (np.pi * x)) * np.cos(x - beta)
        kernel -= kern_main
        main[:, cols] = complex_rows(rows @ kern_main.T)
        err[:, cols] = complex_rows(rows @ kernel.T)
    return (SpaceTimeField(grid, main, n, source="main_term"),
            SpaceTimeField(grid, err, n, source="error_term"))


def oracle_wave_cosine_3d(g: Callable, t: float, r) -> np.ndarray:
    """Exact radial d'Alembert value of cos(t sqrt(-Delta)) g in R^3:

        u(t, r) = [ (r+t) g(r+t) + (r-t) g(|r-t|) ] / (2 r),

    g smooth compactly supported, extended evenly."""
    r = np.asarray(r, dtype=float)
    a = (r + t) * g(np.abs(r + t))
    b = (r - t) * g(np.abs(r - t))
    return (a + b) / (2.0 * r)


def _etd_coeffs(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A(z) = (e^z (z-1) + 1)/z^2 and B(z) = (e^z - 1 - z)/z^2 with stable
    series for |z| small; these integrate a linear-in-time forcing against
    the exact multiplier over one step."""
    z = np.asarray(z, dtype=complex)
    out_a = np.empty_like(z)
    out_b = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out_a[small] = 0.5 + zs / 3.0 + zs**2 / 8.0 + zs**3 / 30.0
    out_b[small] = 0.5 + zs / 6.0 + zs**2 / 24.0 + zs**3 / 120.0
    zl = z[~small]
    ez = np.exp(zl)
    out_a[~small] = (ez * (zl - 1.0) + 1.0) / zl**2
    out_b[~small] = (ez - 1.0 - zl) / zl**2
    return out_a, out_b


def duhamel_coefficients(
    omega: np.ndarray, t_nodes: np.ndarray, forcing: np.ndarray
) -> np.ndarray:
    """c(t_i, s) = -i int_0^{t_i} e^{i (t_i - tau) omega(s)} f_hat(tau, s) dtau
    with f_hat piecewise linear in tau and the multiplier integrated exactly
    (so constant-in-time forcing gives -i f (e^{i t omega} - 1)/(i omega),
    with the removable omega = 0 limit).  The step multipliers are computed
    once per distinct step length."""
    t = np.asarray(t_nodes, dtype=float)
    c = np.zeros_like(forcing, dtype=complex)
    steps = {}
    for i in range(1, t.size):
        dt = t[i] - t[i - 1]
        if dt not in steps:
            z = 1j * omega * dt
            steps[dt] = (np.exp(z), *_etd_coeffs(z))
        ez, a_c, b_c = steps[dt]
        step = dt * (forcing[i - 1] * a_c + forcing[i] * b_c)
        c[i] = ez * c[i - 1] - 1j * step
    return c

