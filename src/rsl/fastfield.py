"""Fast |F(t,r)| sampling for band-limited radial evolutions.

Direct kernel quadrature costs N_t * N_r * N_s and becomes prohibitive for
the large windows the scaling sweeps need.  This engine splits the radius
range at r_c = x_min / s_min:

  * inner block (r <= r_c): the kernel K_n(s r) is non-oscillatory there,
    so a dense kernel matrix over a short radius grid is cheap;

  * outer block (r >= r_c): the kernel is replaced by its phase-extracted
    form K_n(sr) = Re[ sqrt(2/pi) (sr)^(-(n-1)/2) e^{i(sr - beta)} zeta((sr)) ]
    with zeta expanded in separable powers (x_min/(r s))^p
    (bessel.hankel_phase_coeffs).  Each power contributes one chirp-Z
    transform per sign over the uniform radius grid per time node, so the
    whole outer field costs O(P * N_t * (N_s + N_r) log) instead of a dense
    product.  The expansion error is ~5e-12, far below quadrature error.
    x_min and the expansion degree are the bessel constants HANKEL_X_MIN
    and HANKEL_DEGREE.

The chirp-Z transform is an in-house Bluestein convolution on scipy.fft
(`_chirp_z`).  The sampler fuses every slice-independent factor once: the
powers s_pow with the pre-chirp and the radius origin on the input side,
and the expansion weights with the post-chirp and the grid-origin phase on
the output side.  The minus-sign transform runs as the conjugate of a
plus-sign one, so a time slice costs one fused multiply, one fft/ifft pair
over all 2P rows and one contraction over p.

Frequency nodes are uniform with trapezoid weights; the integrand is smooth
and compactly supported in the band, so the rule is spectrally accurate once
the node step resolves the time phase left after carrier extraction
(`band_plan`):  ds * T * max|phi' - c1| <= 0.9 * policy phase step.  The time
grid is octave-structured (`octave_ladder`), matching how dispersive
envelopes slow down, and norm contributions per time octave are recorded so
window saturation can be judged and geometric tails extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from .bessel import HANKEL_X_MIN, hankel_phase_coeffs, radial_kernel
from .dispersion import DispersionSymbol
from .errors import OutOfRangeQ, QuadratureUnderresolved
from .grids import (
    DEFAULT_POLICY,
    PANEL_ORDER,
    QuadraturePolicy,
    band_edges,
    gauss_panel_grid,
    trapezoid_weights,
)
from .transform import sphere_area


@dataclass(frozen=True)
class SamplerConfig:
    policy: QuadraturePolicy = DEFAULT_POLICY
    dr_frac: float = 6.0          # radius nodes per kernel oscillation
    dt_frac: float = 6.0          # time nodes per beat of the band envelope
    nt_octave_cap: int = 48

    def refined(self) -> "SamplerConfig":
        pol = QuadraturePolicy(self.policy.max_phase_step / 2.0, self.policy.refinement_limit)
        return SamplerConfig(pol, self.dr_frac * 2, self.dt_frac * 2, self.nt_octave_cap * 2)


DEFAULT_SAMPLER = SamplerConfig()


@dataclass(frozen=True)
class _ChirpZ:
    """Bluestein plan for y_j = sum_{m < n} x_m e^{i theta j m}, j < m_out.

    theta j m = theta (j^2 + m^2 - (j - m)^2) / 2 turns the sum into the
    pre-chirped input convolved with the chirp e^{-i theta d^2 / 2} and then
    post-chirped; the convolution is circular at length L >= n + m_out - 1,
    with the lags d = j - m < 0 wrapped to L + d."""

    pre: np.ndarray      # e^{i theta m^2 / 2}, m < n
    kernel: np.ndarray   # FFT of the wrapped chirp e^{-i theta d^2 / 2}, length L
    post: np.ndarray     # e^{i theta j^2 / 2}, j < m_out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = fft(x * self.pre, self.kernel.size, axis=-1)
        y *= self.kernel
        return ifft(y, axis=-1)[..., : self.post.shape[-1]] * self.post


def _chirp_z(n: int, m: int, theta: float) -> _ChirpZ:
    L = next_fast_len(n + m - 1)
    half = 0.5 * theta
    h = np.zeros(L, dtype=complex)
    h[:m] = np.exp(-1j * half * np.arange(m) ** 2)
    h[L - n + 1:] = np.exp(-1j * half * np.arange(n - 1, 0, -1) ** 2)
    return _ChirpZ(
        np.exp(1j * half * np.arange(n) ** 2),
        fft(h),
        np.exp(1j * half * np.arange(m) ** 2),
    )


def czt_points(c: np.ndarray, s0: float, ds: float, r0: float, dr: float, m: int,
               sign: float = 1.0, plan: Optional[_ChirpZ] = None) -> np.ndarray:
    """sum_m c[m] e^{i sign r_j s_m} on r_j = r0 + j dr, s_m = s0 + m ds.

    `plan` is a `_chirp_z(c.shape[-1], m, sign * dr * ds)` to reuse across
    calls with the same sizes, steps and sign."""
    n = c.shape[-1]
    if plan is None:
        plan = _chirp_z(n, m, sign * dr * ds)
    out = plan(c * np.exp(1j * sign * r0 * (s0 + ds * np.arange(n))))
    return out * np.exp(1j * sign * np.arange(m) * dr * s0)


@dataclass(frozen=True)
class BandPlan:
    """Carrier and carrier-residual frequency grid of one dyadic band.

    With c1 the Chebyshev center of phi' over the band (range [vmin, vmax]),
    t phi(s) = t (c0 + c1 s) + t rho(s); the affine part is an exact chirp-Z
    window shift, so the uniform grid s (step ds, trapezoid weights ws) only
    has to resolve the residual rate T * max|phi' - c1| (a huge saving for
    nearly-nondispersive bands such as the massive symbols at high k)."""

    c0: float
    c1: float
    vmin: float
    vmax: float
    s: np.ndarray
    ds: float
    ws: np.ndarray
    rho: np.ndarray


def band_plan(symbol: DispersionSymbol, k: int, T: float, policy: QuadraturePolicy) -> BandPlan:
    """The band-k carrier (from a 513-point phi' probe) and the residual grid
    for times |t| <= T: ds * T * max|phi' - c1| <= 0.9 * policy phase step."""
    slo, shi = band_edges(k)
    dp = symbol.dphi(np.linspace(slo, shi, 513))
    vmin, vmax = float(np.min(dp)), float(np.max(dp))
    c1 = 0.5 * (vmin + vmax)
    sc = 0.5 * (slo + shi)
    c0 = float(symbol.phi(np.asarray(sc))) - c1 * sc
    kappa = 0.9 * policy.max_phase_step
    ns = int(np.ceil((shi - slo) * max(T * 0.5 * (vmax - vmin), 1.0) / kappa)) + 512
    if ns > policy.refinement_limit * PANEL_ORDER:
        raise QuadratureUnderresolved(f"band {k}: {ns} nodes exceed refinement limit")
    s = np.linspace(slo, shi, ns)
    ds = s[1] - s[0]
    ws = np.full(ns, ds)
    ws[0] *= 0.5
    ws[-1] *= 0.5
    return BandPlan(c0, c1, vmin, vmax, s, ds, ws, symbol.phi(s) - (c0 + c1 * s))


def octave_ladder(T: float, dt0: float, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Octave-structured time nodes on [0, T], matching how dispersive
    envelopes slow down: a first piece [0, 16 dt0] at step dt0, then octaves
    [lo, 2 lo] of at most cap + 1 (at least 17) nodes each.  Returns the
    nodes, their trapezoid weights and each node's octave index."""
    first = min(16.0 * dt0, T)
    pieces = [np.linspace(0.0, first, max(int(first / dt0) + 2, 17))]
    lo = first
    while lo < T * (1 - 1e-12):
        hi = min(2.0 * lo, T)
        npt = max(min(int((hi - lo) / dt0) + 2, cap + 1), 17)
        pieces.append(np.linspace(lo, hi, npt)[1:])
        lo = hi
    t = np.concatenate(pieces)
    edges = np.asarray([p[-1] for p in pieces])
    return t, trapezoid_weights(t), np.searchsorted(edges, t, side="left")


class BandFieldSampler:
    """Samples F(t, .) for one dyadic band and accumulates space-time norms."""

    def __init__(
        self,
        symbol: DispersionSymbol,
        n: int,
        k: int,
        amplitude: Callable[[np.ndarray], np.ndarray],
        T: float,
        config: SamplerConfig = DEFAULT_SAMPLER,
        r_window: Optional[tuple] = None,
    ):
        self.symbol, self.n, self.k = symbol, n, k
        self.config = config
        slo, shi = band_edges(k)
        sup_dp = symbol.sup_dphi(slo, shi)
        plan = band_plan(symbol, k, T, config.policy)
        self.c0, self.c1, self.s, self.ds = plan.c0, plan.c1, plan.s, plan.ds
        ns, ws = self.s.size, plan.ws
        kappa = 0.9 * config.policy.max_phase_step
        self.g = np.asarray(amplitude(self.s), dtype=complex)
        self.c_base = self.g * ws
        self.mass_true = sphere_area(n) * float(
            np.sum(ws * np.abs(self.g) ** 2 * self.s ** (n - 1))
        )
        # radius layout
        self.r_c = HANKEL_X_MIN / slo
        dr = np.pi / (config.dr_frac * shi)
        if r_window is None:
            # group transport plus a margin of 80 x 2^-k
            r_hi = 1.1 * T * sup_dp + 80.0 * 2.0 ** (-k)
            r_lo = 0.0
        else:
            r_lo, r_hi = r_window
        self.dr = dr
        if r_lo < self.r_c:
            # Gauss-Legendre panels keep the radial quadrature high-order
            # (uniform trapezoid leaves an O(dr^2) endpoint term from the
            # nonvanishing slope of |F|^2 r^(n-1) at r = 0)
            in_lo, in_hi = max(r_lo, 1e-9), min(self.r_c, r_hi)
            n_pan = max(int(np.ceil((in_hi - in_lo) * 2.0 * shi / 4.0)), 3)
            rg_in = gauss_panel_grid(in_lo, in_hi, n_pan)
            self.r_in, self.w_in = rg_in.nodes, rg_in.weights
            # the inner block sees the full multiplier; its own frequency grid
            # is sized by the time horizon after which transport has emptied
            # the inner region (the field there is then negligible by
            # non-stationary phase, enforced via `t_inner_max`)
            self.t_inner_max = (self.r_c + 100.0 * 2.0 ** (-k)) / max(plan.vmin, 1e-9)
            t_in = min(T, self.t_inner_max)
            ns_in = int(np.ceil((shi - slo) * max(t_in * sup_dp, 1.0) / kappa)) + 64
            self.s_in = np.linspace(slo, shi, ns_in)
            ws_in = np.full(ns_in, self.s_in[1] - self.s_in[0])
            ws_in[0] *= 0.5
            ws_in[-1] *= 0.5
            self.g_in = np.asarray(amplitude(self.s_in), dtype=complex) * ws_in
            self.phis_in = symbol.phi(self.s_in)
            self.K_in = radial_kernel(n, np.outer(self.s_in, self.r_in)) * (
                self.s_in ** (n - 1)
            )[:, None]
        else:
            self.r_in = np.empty(0)
            self.w_in = np.empty(0)
            self.K_in = None
            self.t_inner_max = 0.0
        out_lo = max(r_lo, self.r_c)
        if r_hi > out_lo:
            # odd count so composite Simpson applies on the full span
            m = max(int(np.floor((r_hi - out_lo) / dr)) + 1, 3)
            if m % 2 == 0:
                m += 1
            self.r_out = out_lo + dr * np.arange(m)
        else:
            self.r_out = np.empty(0)
        # separable outer expansion: one chirp-Z plan whose input side fuses
        # the powers s_pow with e^{i r_0 s} and whose output side fuses the
        # weights e^{-i beta} b_p r_pow / sqrt(2 pi) with e^{i j dr s_0}
        if self.r_out.size:
            b = hankel_phase_coeffs(n)
            self.bp = b
            p_idx = np.arange(b.size)[:, None]
            s_pow = (self.s ** ((n - 1) / 2.0))[None, :] * (HANKEL_X_MIN / self.s)[None, :] ** p_idx
            r_pow = (self.r_out ** (-(n - 1) / 2.0))[None, :] * (1.0 / self.r_out)[None, :] ** p_idx
            m = self.r_out.size
            cz = _chirp_z(ns, m, self.dr * self.ds)
            beta = (n - 1) * np.pi / 4.0
            j_phase = np.exp(1j * self.dr * self.s[0] * np.arange(m))
            self.outer = _ChirpZ(
                s_pow * (np.exp(1j * self.r_out[0] * self.s) * cz.pre),
                cz.kernel,
                (np.exp(-1j * beta) / np.sqrt(2.0 * np.pi)) * b[:, None] * r_pow
                * (cz.post * j_phase),
            )
            # phi - c0 = c1 s + rho: the envelope phase per unit time
            self.phase_rate = plan.rho + plan.c1 * self.s
        # octave time grid on [0, T] (amplitude real => |F| even in t)
        dphi_spread = abs(float(symbol.phi(np.asarray(shi))) - float(symbol.phi(np.asarray(slo))))
        dt0 = 2.0 * np.pi / (config.dt_frac * max(dphi_spread, 1e-30))
        self.t, self.wt, self.octave_of = octave_ladder(T, dt0, config.nt_octave_cap)
        self.n_octaves = int(self.octave_of[-1]) + 1

    # -- field access -------------------------------------------------------

    def field_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if self.K_in is not None and t <= self.t_inner_max:
            f_in = (self.g_in * np.exp(1j * t * self.phis_in)) @ self.K_in
        elif self.K_in is not None:
            # transport has left the inner region; the residual is below the
            # sampler's accuracy floor (non-stationary phase)
            f_in = np.zeros(self.r_in.size, dtype=complex)
        else:
            f_in = np.empty(0, dtype=complex)
        if not self.r_out.size:
            return f_in, np.empty(0, dtype=complex)
        # with v_m = c_m e^{i t (phi(s_m) - c0)}, the plus-sign sums
        # sum_m v_m s_pow[p, m] e^{i r_j s_m} are rows of one chirp-Z
        # transform; the minus-sign ones are the conjugates of the same
        # transform of conj(v), and their weights e^{+i beta} conj(b_p) the
        # conjugates of the plus weights, so one conjugation folds them in
        v = self.c_base * np.exp(1j * t * self.phase_rate)
        z = np.sum(self.outer(np.stack([v, np.conj(v)])[:, None, :]), axis=1)
        return f_in, (z[0] + np.conj(z[1])) * np.exp(1j * t * self.c0)

    def mass_at(self, t: float) -> float:
        """omega int |F(t,.)|^2 r^(n-1) dr over the sampled radius range."""
        f_in, f_out = self.field_at(t)
        m_in, m_out = self.radial_measure()
        tot = np.sum(m_in * np.abs(f_in) ** 2) + np.sum(m_out * np.abs(f_out) ** 2)
        return sphere_area(self.n) * float(tot)

    # -- norms ---------------------------------------------------------------

    def radial_measure(self) -> tuple[np.ndarray, np.ndarray]:
        """(m_in, m_out): radial quadrature weights times r^(n-1) on the inner
        and outer radius nodes.  The inner block carries its Gauss-Legendre
        weights; the uniform outer grid carries composite Simpson (odd node
        count by construction)."""
        w_out = np.full(self.r_out.size, self.dr * 2.0 / 3.0)
        if self.r_out.size:
            w_out[1:-1:2] = self.dr * 4.0 / 3.0
            w_out[0] = w_out[-1] = self.dr / 3.0
        return self.w_in * self.r_in ** (self.n - 1), w_out * self.r_out ** (self.n - 1)

    def norms(self, pairs: Sequence[tuple]) -> dict:
        """Mixed norms over |t| <= T and the sampled radius range.

        pairs: (q, r) exponent pairs with q < inf (r = q allowed, r = inf via
        math.inf).  Returns {pair: (norm, per_octave_qpowers)}; raises
        OutOfRangeQ for an infinite q.
        """
        if any(math.isinf(q) for q, _ in pairs):
            raise OutOfRangeQ(f"time exponent q must be finite, got pairs {list(pairs)}")
        om = sphere_area(self.n)
        mi, mo = self.radial_measure()
        acc = {p: np.zeros(self.n_octaves) for p in pairs}
        for t, wt, oct_i in zip(self.t, self.wt, self.octave_of):
            f_in, f_out = self.field_at(t)
            a_in, a_out = np.abs(f_in), np.abs(f_out)
            for q, r in pairs:
                if math.isinf(r):
                    inner = max(
                        a_in.max() if a_in.size else 0.0,
                        a_out.max() if a_out.size else 0.0,
                    )
                else:
                    inner = (om * (np.sum(a_in**r * mi) + np.sum(a_out**r * mo))) ** (1.0 / r)
                # factor 2: even extension to t < 0
                acc[(q, r)][oct_i] += 2.0 * wt * inner**q
        return {p: (float(np.sum(v) ** (1.0 / p[0])), v) for p, v in acc.items()}


@dataclass(frozen=True)
class BandNormResult:
    norm: float
    T: float
    converged: bool
    nonconvergent: bool
    extrapolated: Optional[float]
    octave_powers: tuple


def band_norm_adaptive(
    symbol: DispersionSymbol,
    n: int,
    k: int,
    amplitude: Callable,
    pairs: Sequence[tuple],
    T0: float,
    max_doublings: int = 3,
    config: SamplerConfig = DEFAULT_SAMPLER,
    r_window: Optional[tuple] = None,
) -> dict:
    """Norms with the adaptive window rule applied to the time octaves.

    A pair is `converged` when its last octave adds <= 1% to its norm, i.e.
    holds <= q% of its q-th power.  The window doubles until every pair is
    converged, or until the octave-power ratios plateau near 1 (then
    `nonconvergent`).  A geometric tail extrapolation is attached whenever
    the ratios decay.
    """
    T = T0
    for attempt in range(max_doublings + 1):
        sampler = BandFieldSampler(symbol, n, k, amplitude, T, config, r_window)
        res = sampler.norms(pairs)
        converged = {}
        worst_ratio = 0.0
        for q, r in pairs:
            _, powers = res[(q, r)]
            total = np.sum(powers)
            converged[(q, r)] = bool(total <= 0 or powers[-1] / total <= q * 1e-2)
            tail = powers[powers > 0]
            if tail.size >= 2:
                worst_ratio = max(worst_ratio, tail[-1] / tail[-2])
        done = all(converged.values())
        if done or attempt == max_doublings:
            out = {}
            for q, r in pairs:
                norm, powers = res[(q, r)]
                nonconv = (not done) and worst_ratio >= 0.9
                extrap = None
                tail = powers[powers > 0]
                if tail.size >= 2:
                    rho = tail[-1] / tail[-2]
                    if rho < 1.0:
                        extrap = float((np.sum(powers) + tail[-1] * rho / (1 - rho)) ** (1.0 / q))
                out[(q, r)] = BandNormResult(
                    norm, T, converged[(q, r)], nonconv, extrap, tuple(powers)
                )
            return out
        T *= 2.0
    raise AssertionError("unreachable")
