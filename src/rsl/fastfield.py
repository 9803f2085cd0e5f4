"""Fast |F(t,r)| sampling for band-limited radial evolutions.

Direct kernel quadrature costs N_t * N_r * N_s and becomes prohibitive for
the large windows the scaling sweeps need.  This engine splits the radius
range at r_c = x_min / s_min:

  * inner block (r <= r_c): the kernel K_n(s r) is non-oscillatory there,
    so a dense kernel matrix over a short radius grid is cheap; it is
    evaluated at every time slice, on a frequency grid that resolves the
    full phase t phi(s) over the window |t| <= T;

  * outer block (r >= r_c): the kernel is replaced by its phase-extracted
    form K_n(sr) = Re[ sqrt(2/pi) (sr)^(-(n-1)/2) e^{i(sr - beta)} zeta((sr)) ]
    with zeta expanded in separable powers (x_min/(r s))^p
    (bessel.hankel_phase_coeffs).  Each power contributes one chirp-Z
    transform per sign over the uniform radius grid per time node, so the
    whole outer field costs O(P * N_t * (N_s + N_r) log) instead of a dense
    product.  x_min = 8 and the expansion degree 8 are the bessel constants
    HANKEL_X_MIN and HANKEL_DEGREE: P = 9 terms for even n (1 or 2 for odd
    n) at an expansion error of at most 1.1e-12 (n <= 6), far below
    quadrature error.  At band 0 (s_min = 1/2) the split sits at r_c = 16,
    so the dyadic annuli up to [8, 16] are carried by the exact kernel.

The chirp-Z transform is an in-house Bluestein convolution on numpy.fft
(`chirp_z`).  The sampler fuses every slice-independent factor once: the
powers s_pow with the pre-chirp and the radius origin on the input side,
and the expansion weights with the post-chirp and the grid-origin phase on
the output side.  The minus-sign transform runs as the conjugate of a
plus-sign one, so a time slice costs one fused multiply, one fft/ifft pair
over all 2P rows and one contraction over p.

Frequency nodes are uniform with trapezoid weights; the integrand is smooth
and compactly supported in the band, so the rule is spectrally accurate once
the node step resolves the time phase left after carrier extraction
(`band_plan`):  ds * T * max|phi' - c1| <= grids.node_phase(phase step).  The
sampler also keeps the period 2 pi / ds of the frequency sums beyond its
radius range plus the transport distance T sup|phi'|, so no alias of the
incoming packet lands on the radius grid (this binds only for long windows
of weakly dispersive bands, such as wave band 0 above T = 950).  The time
grid is octave-structured (`octave_ladder`), matching how dispersive
envelopes slow down, with a Gauss-Legendre rule on each octave: the time
integrand is smooth because the field is band-limited, so at the default
3 nodes per envelope beat (at most 24 per octave) the q = 4 time integral
of Schrodinger n = 2, band 0 over T = 16 is within 3e-10 of a converged
reference.  Norm contributions per time octave are recorded so window
saturation can be judged and geometric tails extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.fft import fft, ifft

from .bessel import HANKEL_X_MIN, hankel_phase_coeffs, kernel_matrix, real_matmul
from .dispersion import DispersionSymbol
from .errors import DomainError, OutOfRangeQ
from .grids import (
    PANEL_ORDER,
    PHASE_STEP,
    band_edges,
    gauss_legendre,
    gauss_panel_grid,
    node_phase,
    require_array_limit,
    require_node_limit,
)
from .transform import radial_norm


@dataclass(frozen=True)
class SamplerConfig:
    phase_step: float = PHASE_STEP  # 0.9 phase_step per uniform node step; in (0, PHASE_STEP]
    dr_frac: float = 6.0          # radius nodes per kernel oscillation
    dt_frac: float = 3.0          # Gauss-Legendre time nodes per envelope beat
    nt_octave_cap: int = 24       # most Gauss-Legendre time nodes per octave

    def __post_init__(self):
        node_phase(self.phase_step)  # checks the phase step

    def refined(self) -> "SamplerConfig":
        return SamplerConfig(self.phase_step / 2.0, self.dr_frac * 2, self.dt_frac * 2,
                             self.nt_octave_cap * 2)


DEFAULT_SAMPLER = SamplerConfig()


@dataclass(frozen=True)
class _ChirpZ:
    """Bluestein plan for y_j = sum_{m < n} x_m e^{i theta j m}, j < m_out.

    theta j m = theta (j^2 + m^2 - (j - m)^2) / 2 turns the sum into the
    pre-chirped input convolved with the chirp e^{-i theta d^2 / 2} and then
    post-chirped; the convolution is circular at length L >= n + m_out - 1,
    with the lags d = j - m < 0 wrapped to L + d."""

    pre: np.ndarray      # e^{i theta m^2 / 2}, m < n, times the input weights
    kernel: np.ndarray   # FFT of the wrapped chirp e^{-i theta d^2 / 2}, length L
    post: np.ndarray     # e^{i theta j^2 / 2}, j < m_out, times the output weights

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # both transforms in place on one zero-padded buffer: numpy.fft's own
        # padding (its n argument) costs a fifth more per transform
        n = self.pre.shape[-1]
        shape = np.broadcast_shapes(np.shape(x), np.shape(self.pre))
        y = np.empty(shape[:-1] + (self.kernel.size,), dtype=complex)
        np.multiply(x, self.pre, out=y[..., :n])
        y[..., n:] = 0.0
        fft(y, axis=-1, out=y)
        y *= self.kernel
        return ifft(y, axis=-1, out=y)[..., : self.post.shape[-1]] * self.post


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1): a length whose transforms
    are fast, and faster than those of the 7- and 11-smooth lengths."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def chirp_z(s: np.ndarray, r0: float, dr: float, m: int, pre=1.0, post=1.0) -> _ChirpZ:
    """Plan for y_j = post_j sum_k pre_k x_k e^{i r_j s_k} on the uniform
    frequency nodes s and the radii r_j = r0 + j dr, j < m.  With
    r_j s_k = r0 s_k + j dr s_0 + j k dr ds, the origin phases e^{i r0 s} and
    e^{i j dr s_0} are fused with the weights pre (input side) and post
    (output side) around a Bluestein transform at theta = dr ds."""
    n = s.size
    L = _smooth_length(n + m - 1)
    half = 0.5 * (dr * (s[1] - s[0]))
    h = np.zeros(L, dtype=complex)
    h[:m] = np.exp(-1j * half * np.arange(m) ** 2)
    h[L - n + 1:] = np.exp(-1j * half * np.arange(n - 1, 0, -1) ** 2)
    return _ChirpZ(
        pre * (np.exp(1j * r0 * s) * np.exp(1j * half * np.arange(n) ** 2)),
        fft(h),
        post * (np.exp(1j * half * np.arange(m) ** 2) * np.exp(1j * dr * s[0] * np.arange(m))),
    )


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


def band_plan(symbol: DispersionSymbol, k: int, T: float, phase_step: float,
              span: float = 0.0) -> BandPlan:
    """The band-k carrier (from a 513-point phi' probe) and the residual grid
    for times |t| <= T: ds * T * max|phi' - c1| <= node_phase(phase_step).

    A sum over the grid is periodic in r with period 2 pi / ds, so a packet
    at r reappears at r +- 2 pi / ds; the node count is raised until that
    period is at least `span`, the radius range the sums must represent."""
    slo, shi = band_edges(k)
    dp = symbol.dphi(np.linspace(slo, shi, 513))
    vmin, vmax = float(np.min(dp)), float(np.max(dp))
    c1 = 0.5 * (vmin + vmax)
    sc = 0.5 * (slo + shi)
    c0 = float(symbol.phi(np.asarray(sc))) - c1 * sc
    kappa = node_phase(phase_step)
    ns = int(np.ceil((shi - slo) * max(T * 0.5 * (vmax - vmin), 1.0) / kappa)) + 512
    ns = max(ns, int(np.ceil((shi - slo) * span / (2.0 * np.pi))) + 1)
    require_node_limit(ns, f"band {k}")
    s = np.linspace(slo, shi, ns)
    ds = s[1] - s[0]
    ws = np.full(ns, ds)
    ws[0] *= 0.5
    ws[-1] *= 0.5
    return BandPlan(c0, c1, vmin, vmax, s, ds, ws, symbol.phi(s) - (c0 + c1 * s))


def band_beat(symbol: DispersionSymbol, k: int) -> float:
    """|phi(2^(k+1)) - phi(2^(k-1))|: the angular frequency at which the
    envelope of band k beats.  Raises DomainError unless it is positive."""
    slo, shi = band_edges(k)
    beat = abs(float(symbol.phi(np.asarray(shi))) - float(symbol.phi(np.asarray(slo))))
    if not beat > 0:
        raise DomainError(f"{symbol.name}: band {k} has beat {beat}, not positive")
    return beat


def octave_ladder(
    T: float, beat: float, steps_per_beat: float, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Octave-structured time nodes on [0, T], matching how dispersive
    envelopes slow down: a first piece [0, 16 dt0], with
    dt0 = 2 pi / (steps_per_beat * beat), then octaves [lo, min(2 lo, T)].
    Each piece carries a Gauss-Legendre rule of one node per dt0 of its
    length, at least 16 nodes and (past the first piece) at most cap, so
    every node lies inside its piece.  Returns the nodes, their weights and
    each node's piece (octave) index."""
    dt0 = 2.0 * np.pi / (steps_per_beat * beat)
    first = min(16.0 * dt0, T)
    edges = [0.0, first]
    counts = [max(int(first / dt0) + 1, 16)]
    while edges[-1] < T * (1 - 1e-12):
        lo = edges[-1]
        hi = min(2.0 * lo, T)
        counts.append(max(min(int((hi - lo) / dt0) + 1, cap), 16))
        edges.append(hi)
    t, wt = [], []
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        x, w = gauss_legendre(c)
        half = 0.5 * (hi - lo)
        t.append(lo + half * (1.0 + x))
        wt.append(half * w)
    return (np.concatenate(t), np.concatenate(wt),
            np.repeat(np.arange(len(counts)), counts))


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
        margin = 80.0 * 2.0 ** (-k)
        if r_window is None:
            # group transport plus the margin
            r_hi = 1.1 * T * sup_dp + margin
            r_lo = 0.0
        else:
            r_lo, r_hi = r_window
        kappa = node_phase(config.phase_step)
        self.r_c = HANKEL_X_MIN / slo
        dr = np.pi / (config.dr_frac * shi)
        out_lo = max(r_lo, self.r_c)
        # size the inner frequency grid, the radius grid (Gauss-Legendre
        # panels below r_c, an odd count of uniform nodes above it) and the
        # inner kernel, and check them against the node and array limits
        # before any grid, the band plan's too, is built
        n_in = 0
        if r_lo < self.r_c:
            in_lo, in_hi = r_lo or 1e-9, min(self.r_c, r_hi)
            n_pan = max(int(np.ceil((in_hi - in_lo) * 2.0 * shi / 4.0)), 3)
            n_in = n_pan * PANEL_ORDER
            # the inner block sees the full multiplier on its own frequency
            # grid, which resolves the phase t phi(s) for every |t| <= T
            ns_in = int(np.ceil((shi - slo) * max(T * sup_dp, 1.0) / kappa)) + 64
            require_node_limit(ns_in, f"band {k} inner frequency grid")
            require_array_limit((ns_in, n_in), 8, f"band {k} inner kernel")
        m = 0
        if r_hi > out_lo:
            m = max(int(np.ceil((r_hi - out_lo) / dr)) + 1, 3)
            if m % 2 == 0:
                m += 1
        require_node_limit(n_in + m, f"band {k} radius grid")
        # the incoming (minus-sign) packet sits near r = -t phi'; its alias at
        # 2 pi / ds - t phi' must stay beyond r_hi for every |t| <= T
        plan = band_plan(symbol, k, T, config.phase_step, span=r_hi + T * sup_dp + margin)
        self.c0, self.c1, self.s, self.ds = plan.c0, plan.c1, plan.s, plan.ds
        ws = plan.ws
        self.g = np.asarray(amplitude(self.s), dtype=complex)
        self.c_base = self.g * ws
        self.mass_true = float(radial_norm(self.g, ws * self.s ** (n - 1), n, 2)) ** 2
        if n_in:
            # Gauss-Legendre panels keep the radial quadrature high-order
            # (uniform trapezoid leaves an O(dr^2) endpoint term from the
            # nonvanishing slope of |F|^2 r^(n-1) at r = 0); only r = 0
            # itself moves to 1e-9, so annuli below 1e-9 keep their window
            rg_in = gauss_panel_grid(in_lo, in_hi, n_pan)
            self.r_in, w_in = rg_in.nodes, rg_in.weights
            self.s_in = np.linspace(slo, shi, ns_in)
            ws_in = np.full(ns_in, self.s_in[1] - self.s_in[0])
            ws_in[0] *= 0.5
            ws_in[-1] *= 0.5
            self.g_in = np.asarray(amplitude(self.s_in), dtype=complex) * ws_in
            self.phis_in = symbol.phi(self.s_in)
            self.K_in = kernel_matrix(n, self.s_in, self.r_in)
            self.K_in *= (self.s_in ** (n - 1))[:, None]
        else:
            self.r_in = w_in = np.empty(0)
        if m:
            # the step shrunk from dr so the last node lands on r_hi, and an
            # odd count so composite Simpson applies on the full span
            self.r_out, dr = np.linspace(out_lo, r_hi, m, retstep=True)
        else:
            self.r_out = np.empty(0)
        # one radius grid r_in + r_out; its measure is quadrature weight times
        # r^(n-1): Gauss-Legendre on the inner block, composite Simpson on the
        # uniform outer grid (odd node count by construction)
        w_out = np.full(self.r_out.size, dr * 2.0 / 3.0)
        if self.r_out.size:
            w_out[1:-1:2] = dr * 4.0 / 3.0
            w_out[0] = w_out[-1] = dr / 3.0
        self.r = np.concatenate([self.r_in, self.r_out])
        self.measure = np.concatenate([w_in, w_out]) * self.r ** (n - 1)
        # separable outer expansion: one chirp-Z plan whose input side fuses
        # the powers s_pow with e^{i r_0 s} and whose output side fuses the
        # weights e^{-i beta} b_p r_pow / sqrt(2 pi) with e^{i j dr s_0}
        if self.r_out.size:
            b = hankel_phase_coeffs(n)
            self.bp = b
            p_idx = np.arange(b.size)[:, None]
            s_pow = (self.s ** ((n - 1) / 2.0))[None, :] * (HANKEL_X_MIN / self.s)[None, :] ** p_idx
            r_pow = (self.r_out ** (-(n - 1) / 2.0))[None, :] * (1.0 / self.r_out)[None, :] ** p_idx
            beta = (n - 1) * np.pi / 4.0
            self.outer = chirp_z(
                self.s, self.r_out[0], dr, self.r_out.size, pre=s_pow,
                post=(np.exp(-1j * beta) / np.sqrt(2.0 * np.pi)) * b[:, None] * r_pow)
            # phi - c0 = c1 s + rho: the envelope phase per unit time
            self.phase_rate = plan.rho + plan.c1 * self.s
        # octave time grid on [0, T] (amplitude real => |F| even in t)
        self.t, self.wt, self.octave_of = octave_ladder(
            T, band_beat(symbol, k), config.dt_frac, config.nt_octave_cap)
        self.n_octaves = int(self.octave_of[-1]) + 1

    # -- field access -------------------------------------------------------

    def field_at(self, t: float) -> np.ndarray:
        """F(t, .) on the radius grid `r`."""
        f = np.zeros(self.r.size, dtype=complex)
        n_in = self.r_in.size
        if n_in:
            f[:n_in] = real_matmul(self.g_in * np.exp(1j * t * self.phis_in), self.K_in)
        if not self.r_out.size:
            return f
        # with v_m = c_m e^{i t (phi(s_m) - c0)}, the plus-sign sums
        # sum_m v_m s_pow[p, m] e^{i r_j s_m} are rows of one chirp-Z
        # transform; the minus-sign ones are the conjugates of the same
        # transform of conj(v), and their weights e^{+i beta} conj(b_p) the
        # conjugates of the plus weights, so one conjugation folds them in
        v = self.c_base * np.exp(1j * t * self.phase_rate)
        z = np.sum(self.outer(np.stack([v, np.conj(v)])[:, None, :]), axis=1)
        f[n_in:] = (z[0] + np.conj(z[1])) * np.exp(1j * t * self.c0)
        return f

    def mass_at(self, t: float) -> float:
        """omega int |F(t,.)|^2 r^(n-1) dr over the sampled radius range."""
        return float(radial_norm(self.field_at(t), self.measure, self.n, 2)) ** 2

    # -- norms ---------------------------------------------------------------

    def norms(self, qs: Sequence[float]) -> dict:
        """L^q_{t,x} norms over |t| <= T and the sampled radius range.

        Returns {q: (norm, per_octave_qpowers)}; raises OutOfRangeQ for an
        infinite q.
        """
        if any(math.isinf(q) for q in qs):
            raise OutOfRangeQ(f"time exponent q must be finite, got {list(qs)}")
        acc = {q: np.zeros(self.n_octaves) for q in qs}
        for t, wt, oct_i in zip(self.t, self.wt, self.octave_of):
            f = self.field_at(t)
            for q in qs:
                # factor 2: even extension to t < 0
                acc[q][oct_i] += 2.0 * wt * radial_norm(f, self.measure, self.n, q) ** q
        return {q: (float(np.sum(v) ** (1.0 / q)), v) for q, v in acc.items()}


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
    qs: Sequence[float],
    T0: float,
    max_doublings: int = 3,
    config: SamplerConfig = DEFAULT_SAMPLER,
    r_window: Optional[tuple] = None,
) -> dict:
    """L^q_{t,x} norms {q: BandNormResult} with the adaptive window rule
    applied to the time octaves.

    An exponent is `converged` when its last octave adds <= 1% to its norm,
    i.e. holds <= q% of its q-th power.  The window doubles until every
    exponent is converged, or until the octave-power ratios plateau near 1
    (then `nonconvergent`).  A geometric tail extrapolation is attached
    whenever the ratios decay.
    """
    T = T0
    for attempt in range(max_doublings + 1):
        sampler = BandFieldSampler(symbol, n, k, amplitude, T, config, r_window)
        res = sampler.norms(qs)
        converged = {}
        worst_ratio = 0.0
        for q in qs:
            _, powers = res[q]
            total = np.sum(powers)
            converged[q] = bool(total <= 0 or powers[-1] / total <= q * 1e-2)
            tail = powers[powers > 0]
            if tail.size >= 2:
                worst_ratio = max(worst_ratio, tail[-1] / tail[-2])
        done = all(converged.values())
        if done or attempt == max_doublings:
            out = {}
            for q in qs:
                norm, powers = res[q]
                nonconv = (not done) and worst_ratio >= 0.9
                extrap = None
                tail = powers[powers > 0]
                if tail.size >= 2:
                    rho = tail[-1] / tail[-2]
                    if rho < 1.0:
                        extrap = float((np.sum(powers) + tail[-1] * rho / (1 - rho)) ** (1.0 / q))
                out[q] = BandNormResult(norm, T, converged[q], nonconv, extrap, tuple(powers))
            return out
        T *= 2.0
    raise AssertionError("unreachable")
