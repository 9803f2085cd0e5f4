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

`duhamel_coefficients` gives the frequency-side retarded term on
Gauss-Lobatto time panels: the forcing's collocation polynomial on each
panel is integrated against the exact multiplier, with the weights of
`duhamel_table`.  Its callers (the Picard solvers and the retarded-estimate
check) synthesize the field themselves.

A `SpaceTimeField` holds samples only.  Its norms are reductions of the
sample array (`transform.radial_norm` per time slice, `transform.spacetime_norm`
over the slab) against a measure the caller builds from its own grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bessel import complex_rows, kernel_panels, real_rows
from .cutoffs import dyadic_cutoff
from .dispersion import DispersionSymbol
from .errors import SplitDomainError
from .grids import (TIME_PANEL_ORDER, FrequencyGrid, PhysicalGrid, band_edges, gauss_legendre,
                    gauss_lobatto, lobatto_panel_count, panel_grid, require_resolution)
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


# Gauss-Legendre nodes per Lobatto node gap in the exact Duhamel weights,
# plus one per DUHAMEL_GAP_PHASE rad of |omega| times the widest gap
DUHAMEL_GAUSS = 8
DUHAMEL_GAP_PHASE = 1.0


def duhamel_table(omega: np.ndarray, h: float,
                  order: int = TIME_PANEL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """The exact exponential collocation weights of a time panel [a, a + h]
    with `order` Gauss-Lobatto nodes tau_j, for the generator values omega:
    (E, W) with E[j] = e^{i omega (tau_j - a)}, shape (order, n_s), and

        W[j, k] = int_a^{tau_j} e^{i omega (tau_j - tau)} L_k(tau) dtau,

    shape (order, order, n_s), L_k the Lagrange basis on the nodes.  Each
    gap between neighbouring nodes is integrated by Gauss-Legendre (its
    phase on the widest gap sets the node count) and the gaps are chained,
    W[j] = e^{i omega (tau_j - tau_(j-1))} W[j-1] + int over the gap, so
    the weights hold to rounding for every omega h, omega = 0 included."""
    omega = np.asarray(omega, dtype=float)
    x, _ = gauss_lobatto(order)
    u = (x + 1.0) / 2.0                       # the nodes on the unit panel
    bary = 1.0 / np.prod(u[:, None] - u[None, :] + np.eye(order), axis=1)
    gaps = np.diff(u)
    count = DUHAMEL_GAUSS + int(np.ceil(np.max(np.abs(omega), initial=0.0) * h
                                        * gaps.max() / DUHAMEL_GAP_PHASE))
    y, g = gauss_legendre(count)
    v = u[:-1, None] + gaps[:, None] * (y[None, :] + 1.0) / 2.0     # (order-1, count)
    # Lagrange basis at the Gauss nodes (never a Lobatto node), barycentric,
    # times the Gauss weights of each gap: (order-1, count, order)
    lag = bary / (v[..., None] - u)
    lag *= (h * gaps[:, None] / 2.0 * g[None, :] / lag.sum(axis=2))[..., None]
    kern = np.exp(1j * h * (u[1:, None] - v)[..., None] * omega)      # (order-1, count, n_s)
    lag = lag.transpose(0, 2, 1)
    gap_int = np.matmul(lag, kern.real) + 1j * np.matmul(lag, kern.imag)  # (order-1, order, n_s)
    del kern
    table = np.zeros((order, order, omega.size), dtype=complex)
    step = np.exp(1j * h * gaps[:, None] * omega)
    for j in range(1, order):
        table[j] = step[j - 1] * table[j - 1] + gap_int[j - 1]
    return np.exp(1j * h * np.outer(u, omega)), table


def duhamel_coefficients(
    t_nodes: np.ndarray, forcing: np.ndarray, table: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """c(t_i, s) = -i int_0^{t_i} e^{i (t_i - tau) omega(s)} f_hat(tau, s) dtau
    on the Gauss-Lobatto panels t_nodes (`grids.lobatto_panels`): on each
    panel [a, b], with f_hat the polynomial through its values on the
    panel's nodes,

        c(tau_j) = e^{i omega (tau_j - a)} c(a) - i sum_k W_jk(omega) f(tau_k),

    with the exact weights (E, W) = `table` of `duhamel_table` for the
    generator values omega and the panel width.  Forcing of degree
    <= order - 1 in tau is integrated exactly.  The sums run over every panel at once, and one
    scan over the panel ends carries c(a) from panel to panel."""
    t = np.asarray(t_nodes, dtype=float)
    forcing = np.asarray(forcing)
    phase, weights = table
    order = weights.shape[0]
    n_panels = lobatto_panel_count(t, order)
    # the forcing on each panel's nodes, a read-only view: (panels, n_s, order)
    panels = sliding_window_view(forcing, order, axis=0)[::order - 1]
    c = np.empty(forcing.shape, dtype=complex)
    # each panel's rows j < order - 1 (its last row is the next panel's first)
    # and its end value, from c(a) = 0; then the scan carries c(a)
    body = c[:-1].reshape(n_panels, order - 1, -1)
    np.einsum("jks,psk->pjs", weights[:-1], panels, out=body, optimize=True)
    ends = np.einsum("ks,psk->ps", weights[-1], panels, optimize=True)
    body *= -1j
    ends *= -1j
    for p in range(1, n_panels):
        ends[p] += phase[-1] * ends[p - 1]
    body[1:] += phase[:-1] * ends[:-1, None]
    c[-1] = ends[-1]
    return c
