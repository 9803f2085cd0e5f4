"""Scaling-exponent verification harness.

Realizes the dyadic bounds as regressions: each check measures norms across
a sweep (frequency band k, annulus j, truncation R, tube width delta), fits
log2(norm) against the sweep index by least squares, and compares the slope
with the predicted rate.  Upper-bound semantics: theorem-style checks PASS
when measured <= predicted + tolerance; sharpness checks PASS when the
divergence they predict is observed.  Fits with max residual > 0.2 are
flagged unreliable regardless of slope.

The sharpness counterexamples and the one-dimensional lemma checks work with
the reduced main-term integrals directly (the radius weight r^((n-1)/q - (n-1)/2)
already extracted), which is both how the bounds are proved sharp and what
keeps the runs at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .admissibility import (
    is_radial_schrodinger_admissible,
    is_radial_wave_admissible,
    parse_exponent,
    q_threshold,
    dual,
)
from .bessel import radial_kernel
from .cutoffs import dyadic_cutoff, smooth_bump
from .dispersion import DispersionSymbol, fractional_symbol, regime_exponents
from .errors import (
    AdmissibilityViolation,
    DomainError,
    OutOfRangeQ,
    OutOfRangeSigma,
    ParameterViolation,
    RegimeViolation,
)
from .fastfield import (
    DEFAULT_SAMPLER,
    BandFieldSampler,
    SamplerConfig,
    _chirp_z,
    band_norm_adaptive,
    band_plan,
    czt_points,
    octave_ladder,
)
from .grids import PhysicalGrid, band_edges, trapezoid_weights
from .norms import MixedNormSpec, mixed_norm
from .propagator import SpaceTimeField, duhamel_coefficients
from .transform import canonical_band_amplitude, sphere_area


# --------------------------------------------------------------------------
# fits and reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    indices: tuple
    log_norms: tuple
    slope: float
    intercept: float
    max_residual: float
    predicted_slope: Optional[float]
    reliable: bool
    meta: dict = field(default_factory=dict)

    @property
    def passed_upper(self) -> bool:
        """Upper-bound semantics: measured <= predicted + 0.1."""
        return self.predicted_slope is not None and self.slope <= self.predicted_slope + 0.1


def fit_line(indices, log2_norms, predicted: Optional[float] = None, meta=None) -> ExponentFit:
    idx = np.asarray(indices, dtype=float)
    y = np.asarray(log2_norms, dtype=float)
    slope, intercept = np.polyfit(idx, y, 1)
    resid = float(np.max(np.abs(y - (slope * idx + intercept))))
    return ExponentFit(
        tuple(indices), tuple(y), float(slope), float(intercept), resid,
        predicted, resid <= 0.2, meta or {},
    )


@dataclass(frozen=True)
class BoundReport:
    ratios: tuple
    max_ratio: float
    bound_constant: float
    passed: bool
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GrowthReport:
    indices: tuple
    values: tuple
    monotone: bool
    saturated: bool
    slope: float
    predicted_slope: Optional[float]
    meta: dict = field(default_factory=dict)

    @property
    def diverges(self) -> bool:
        return self.monotone and not self.saturated and self.slope > 0


# --------------------------------------------------------------------------
# data policies
# --------------------------------------------------------------------------

def _random_band_data(k: int, rng: np.random.Generator) -> Callable:
    """The random-band-data rule: 12 complex Gaussian control points across
    band k (real parts drawn first), linearly interpolated."""
    ctrl_s = np.linspace(*band_edges(k), 12)
    ctrl = rng.standard_normal(12) + 1j * rng.standard_normal(12)

    def data(s):
        return np.interp(s, ctrl_s, ctrl.real) + 1j * np.interp(s, ctrl_s, ctrl.imag)

    return data


def random_band_amplitude(n: int, k: int, rng: np.random.Generator) -> Callable:
    """Random smooth band datum (`_random_band_data`), tapered by psi_k and
    normalized to unit L^2."""
    data = _random_band_data(k, rng)
    s_ref = np.linspace(*band_edges(k), 8001)
    vals = dyadic_cutoff(k, s_ref) * data(s_ref) * s_ref ** (-(n - 1) / 2.0)
    z2 = sphere_area(n) * np.trapezoid(np.abs(vals) ** 2 * s_ref ** (n - 1), s_ref)
    z = float(np.sqrt(z2))

    def amp(s, _k=k, _n=n, _z=z, _data=data):
        s = np.asarray(s, dtype=float)
        return dyadic_cutoff(_k, s) * _data(s) * s ** (-(_n - 1) / 2.0) / _z

    return amp


@dataclass(frozen=True)
class DataPolicy:
    kind: str = "canonical"
    seed: int = 0


# --------------------------------------------------------------------------
# predicted rates
# --------------------------------------------------------------------------

def predicted_exponent(symbol: DispersionSymbol, n: int, q, k: int, form: str) -> float:
    """Per-k base-2 rate of the frequency-localized space-time bound."""
    q = float(parse_exponent(q))
    reg = regime_exponents(symbol, k)
    if form == "thm1":
        if q < 2.0 * n / (n - 1):
            raise OutOfRangeQ(f"first-form rate needs q >= 2n/(n-1) = {2*n/(n-1):.3f}")
        return n / 2.0 - (n + reg.m) / q
    if form == "thm2":
        if not symbol.has_curvature:
            raise OutOfRangeQ(f"{symbol.name} has no curvature exponents")
        if not float(q_threshold(n)) <= q <= 6.0:
            raise OutOfRangeQ(f"second-form rate needs {float(q_threshold(n)):.3f} <= q <= 6")
        return n / 2.0 - (n + reg.m) / q + (0.25 - 0.5 / q) * (reg.m - reg.alpha)
    raise ValueError(f"unknown form {form!r}")


def auto_form(symbol: DispersionSymbol, n: int, q) -> str:
    q = float(parse_exponent(q))
    if q > 2.0 * n / (n - 1) or not symbol.has_curvature:
        return "thm1"
    return "thm2"


# --------------------------------------------------------------------------
# frequency and annulus scaling fits
# --------------------------------------------------------------------------

def measure_frequency_norms(
    symbol: DispersionSymbol,
    n: int,
    qs: Sequence[float],
    k_range: Sequence[int],
    T0: float = 64.0,
    max_doublings: int = 2,
    config: SamplerConfig = DEFAULT_SAMPLER,
    data_policy: DataPolicy = DataPolicy(),
) -> dict:
    """Whole-space L^q_{t,x} norms of the band-k evolution for each k.

    Windows are scale-aware, |t| <= T0 2^(-m(k) k), then doubled by the
    adaptive rule; scale covariance of window and grids is what makes the
    k-slopes insensitive to the truncation.  A homogeneous symbol with
    canonical data is measured at band 0 only and rescaled to each k.
    Returns {q: {k: BandNormResult}}.
    """
    out = {float(q): {} for q in qs}
    pairs = [(float(q), float(q)) for q in qs]
    d = symbol.degree
    if d is not None and data_policy.kind == "canonical":
        # canonical_band_amplitude has unit L^2 norm, so h_k(2^k s) =
        # 2^(-kn/2) h_0(s); substituting s -> 2^k s in
        # F_k(t, r) = int h_k(s) e^{i t c s^d} K_n(s r) s^(n-1) ds gives
        # F_k(t, r) = 2^(kn/2) F_0(2^(dk) t, 2^k r).  Band k's window
        # T0 2^(-dk) and its frequency, radius and time grids are band 0's
        # under the same dilation, so every octave's q-th power scales by
        # f^q with f = 2^(k(n/2 - (n+d)/q)), the window by 2^(-dk), and the
        # window rule, which sees only octave ratios, sets the same flags.
        res0 = band_norm_adaptive(
            symbol, n, 0, canonical_band_amplitude(n, 0), pairs,
            T0=T0, max_doublings=max_doublings, config=config,
        )
        for q, _ in pairs:
            b = res0[(q, q)]
            for k in k_range:
                f = 2.0 ** (k * (n / 2.0 - (n + d) / q))
                out[q][k] = replace(
                    b, norm=b.norm * f, T=b.T * 2.0 ** (-d * k),
                    extrapolated=None if b.extrapolated is None else b.extrapolated * f,
                    octave_powers=tuple(p * f**q for p in b.octave_powers),
                )
        return out
    rng = np.random.default_rng(data_policy.seed)
    for k in k_range:
        m = regime_exponents(symbol, k).m
        if data_policy.kind == "canonical":
            amp = canonical_band_amplitude(n, k)
        else:
            amp = random_band_amplitude(n, k, rng)
        res = band_norm_adaptive(
            symbol, n, k, amp, pairs,
            T0=T0 * 2.0 ** (-m * k),
            max_doublings=max_doublings, config=config,
        )
        for q, _ in pairs:
            out[q][k] = res[(q, q)]
    return out


def fit_frequency_scaling(
    symbol: DispersionSymbol,
    n: int,
    q,
    k_range: Sequence[int],
    T0: float = 64.0,
) -> ExponentFit:
    """log2 ||S(t) P_k u0||_{L^q_{t,x}} regressed on k (canonical data), with
    the predicted rate of the form `auto_form` picks."""
    q = float(parse_exponent(q))
    form = auto_form(symbol, n, q)
    predicted = predicted_exponent(symbol, n, q, max(k_range), form)
    norms = measure_frequency_norms(symbol, n, [q], k_range, T0=T0)[q]
    ks = sorted(norms)
    logs = [math.log2(norms[k].norm) for k in ks]
    meta = {
        "form": form,
        "converged": {k: norms[k].converged for k in ks},
        "nonconvergent": {k: norms[k].nonconvergent for k in ks},
        "T": {k: norms[k].T for k in ks},
    }
    return fit_line(ks, logs, predicted, meta)


def annulus_predicted_slope(n: int, q: float, regime: str) -> float:
    if regime == "inner":
        return n / q
    if regime == "outer_thm1":
        return n / q - (n - 1) / 2.0
    if regime == "outer_thm2":
        return (2 * n + 1) / (2 * q) - (2 * n - 1) / 4.0
    raise ValueError(f"unknown regime {regime!r}")


def measure_annulus_norms(
    symbol: DispersionSymbol,
    n: int,
    qs: Sequence[float],
    k: int,
    j_range: Sequence[int],
    regime: str,
    max_doublings: int = 2,
    config: SamplerConfig = DEFAULT_SAMPLER,
) -> dict:
    """Per-annulus L^q_{t,x}(R x A_j) norms of the band-k evolution."""
    inner = regime == "inner"
    for j in j_range:
        if inner and j + k > 1:
            raise RegimeViolation(f"inner regime needs j + k <= 1, got j={j}, k={k}")
        if not inner and j + k < 2:
            raise RegimeViolation(f"outer regime needs j + k >= 2, got j={j}, k={k}")
    amp = canonical_band_amplitude(n, k)
    lo, hi = band_edges(k)
    min_dp = max(symbol.min_dphi(lo, hi), 1e-9)
    m = regime_exponents(symbol, k).m
    out = {float(q): {} for q in qs}
    pairs = [(float(q), float(q)) for q in qs]
    for j in j_range:
        if inner:
            T0 = 16.0 * 2.0 ** (-m * k)
        else:
            T0 = max(4.0 * 2.0**j / min_dp, 16.0 * 2.0 ** (-m * k))
        res = band_norm_adaptive(
            symbol, n, k, amp, pairs, T0=T0,
            max_doublings=max_doublings, config=config,
            r_window=(2.0 ** (j - 1), 2.0**j),
        )
        for q in qs:
            out[float(q)][j] = res[(float(q), float(q))]
    return out


def fit_annulus_scaling(
    symbol: DispersionSymbol,
    n: int,
    q,
    k: int,
    j_range: Sequence[int],
    regime: str,
) -> ExponentFit:
    """Per-annulus norms vs j against the regime's predicted slope; PASS is
    one-sided (the bounds are upper bounds): measured <= predicted + 0.1."""
    q = float(parse_exponent(q))
    norms = measure_annulus_norms(symbol, n, [q], k, j_range, regime)[q]
    js = sorted(norms)
    logs = [math.log2(norms[j].norm) for j in js]
    predicted = annulus_predicted_slope(n, q, regime)
    meta = {"regime": regime, "k": k, "T": {j: norms[j].T for j in js}}
    return fit_line(js, logs, predicted, meta)


# --------------------------------------------------------------------------
# one-dimensional lemma checks
# --------------------------------------------------------------------------

def _band_quad(k: int, points_per_unit_phase: float, budget: float):
    lo, hi = band_edges(k)
    ns = max(int(np.ceil((hi - lo) * budget * points_per_unit_phase)), 512)
    s = np.linspace(lo, hi, ns)
    w = trapezoid_weights(s)
    return s, w


def smoothing_lemma_check(
    symbol: DispersionSymbol,
    k: int,
    q: float,
    trial_count: int = 8,
    seed: int = 0,
    trial_data: Optional[Sequence] = None,
) -> BoundReport:
    """Ratio || int psi_k phi_data e^{-i t phi(s)} ds ||_{L^q_t} over
    2^{(1/2 - m(k)/q) k} || psi_k phi_data ||_{L^2(ds)} for random band data
    (or explicit `trial_data` callables s -> values); PASS when every ratio
    is at most 10."""
    if not 2 <= q < math.inf:
        raise OutOfRangeQ(f"smoothing check needs 2 <= q < inf, got {q}")
    rng = np.random.default_rng(seed)
    lo, hi = band_edges(k)
    dphi_spread = abs(float(symbol.phi(np.asarray(hi))) - float(symbol.phi(np.asarray(lo))))
    m = regime_exponents(symbol, k).m
    T = 512.0 / max(dphi_spread, 1e-12)
    t, wt, _ = octave_ladder(T, 2 * np.pi / (8.0 * max(dphi_spread, 1e-12)), 64)
    s, ws = _band_quad(k, 1.2, T * symbol.sup_dphi(lo, hi))
    cut = dyadic_cutoff(k, s)
    phase = np.exp(-1j * np.outer(t, symbol.phi(s)))
    ratios = []
    n_trials = len(trial_data) if trial_data is not None else trial_count
    for trial in range(n_trials):
        if trial_data is not None:
            data = np.asarray(trial_data[trial](s), dtype=complex)
        elif trial == 0:
            data = np.ones_like(s, dtype=complex)
        else:
            data = _random_band_data(k, rng)(s)
        g = cut * data
        l2 = float(np.sqrt(np.sum(ws * np.abs(g) ** 2)))
        if l2 == 0.0:
            ratios.append(0.0)
            continue
        vals_pos = phase @ (g * ws)
        vals_neg = np.conj(phase) @ (g * ws)
        # |I| on t >= 0 and t <= 0 separately (data may be complex)
        power = np.sum(wt * np.abs(vals_pos) ** q) + np.sum(wt * np.abs(vals_neg) ** q)
        norm = power ** (1.0 / q)
        ratios.append(norm / (2.0 ** ((0.5 - m / q) * k) * l2))
    mx = float(np.max(ratios))
    return BoundReport(tuple(ratios), mx, 10.0, mx <= 10.0, {"k": k, "q": q, "seed": seed})


def strichartz_l6_check(symbol: DispersionSymbol, k_range: Sequence[int]) -> ExponentFit:
    """1-D L^6_{t,r} norm of int psi_k phi_data e^{i(rs - t phi(s))} ds per
    band, fitted against the curvature rate 1/3 - alpha(k)/6."""
    if not symbol.has_curvature:
        raise OutOfRangeQ(f"{symbol.name} lacks the curvature hypotheses")
    logs = []
    for k in k_range:
        lo, hi = band_edges(k)
        reg = regime_exponents(symbol, k)
        T = 48.0 * 2.0 ** (-reg.alpha * k) if reg.alpha else 48.0
        dphi_spread = abs(float(symbol.phi(np.asarray(hi))) - float(symbol.phi(np.asarray(lo))))
        t_nodes, wt, _ = octave_ladder(T, 2 * np.pi / (6.0 * max(dphi_spread, 1e-12)), 64)
        # carrier extraction: resolve only the residual rate and follow the
        # transported window r in t [vmin, vmax] +- tails
        plan = band_plan(symbol, k, T, DEFAULT_SAMPLER.policy)
        g = dyadic_cutoff(k, plan.s)
        g = g / float(np.sqrt(np.sum(plan.ws * np.abs(g) ** 2)))
        dr = np.pi / (DEFAULT_SAMPLER.dr_frac * hi)
        tail = 60.0 * 2.0 ** (-k)
        m_pts = int(np.ceil((T * (plan.vmax - plan.vmin) + 2 * tail) / dr)) + 1
        cz = _chirp_z(plan.s.size, m_pts, dr * plan.ds)
        acc = 0.0
        for t, w in zip(t_nodes, wt):
            # J(t, r) = int g e^{i(r s - t phi)} ds = e^{-i t c0} x CZT in the
            # shifted variable u = r - t c1; stationary points live at
            # r = t phi', so the window tracks u in t [vmin - c1, vmax - c1]
            c = g * plan.ws * np.exp(-1j * t * plan.rho)
            u0 = t * (plan.vmin - plan.c1) - tail
            vals = czt_points(c, plan.s[0], plan.ds, u0, dr, m_pts, +1.0, cz)
            # (t, r) -> (-t, -r) symmetry for real band data
            acc += 2.0 * w * np.sum(np.abs(vals) ** 6) * dr
        logs.append(math.log2(acc ** (1.0 / 6.0)))
    k0 = max(k_range)
    reg = regime_exponents(symbol, k0)
    predicted = 1.0 / 3.0 - reg.alpha / 6.0
    return fit_line(list(k_range), logs, predicted)


def maximal_check(
    a: float,
    k_range: Sequence[int],
    samples: int = 257,
    c_time: float = 4.0,
) -> ExponentFit:
    """L^2_x L^inf_{|t| <= c_time} size of the band-k evolution e^{i t D^a}
    on the extremal data family, fitted against a/4 (a != 1) or 1/2 (a = 1).

    The translate tail of sup_t contributes a k-independent 2 pi ||f||^2 to
    the squared norm; c_time sets the (hidden) constant of the |t| <~ 1
    window large enough that the transported plateau dominates it across the
    sampled bands."""
    if not a > 0:
        raise DomainError(f"maximal check needs a > 0, got {a}")
    logs = []
    for k in k_range:
        xi0 = 2.0**k
        if a == 1.0:
            width = 0.5 * xi0
        else:
            width = min(0.5 * 2.0 ** (k * (1 - a / 2.0)), 0.5 * xi0)
        speed = a * (2.0 * xi0) ** max(a - 1.0, 0.0)
        # coverage 2 pi / dxi exceeds twice the swept extent; FFT resolves
        # the packet width 1/width with dx <= 1/(8 width)
        x_need = speed * c_time * 1.25 + 24.0 / width
        n_xi = max(int(np.ceil(2.0 * width * x_need / np.pi)) + 16, 256)
        xi = np.linspace(xi0 - width, xi0 + width, n_xi)
        dxi = xi[1] - xi[0]
        f = np.full(n_xi, (2.0 * width) ** (-0.5)) * smooth_bump(xi / (2.0 * xi0))
        n_fft = int(2 ** np.ceil(np.log2(max(n_xi, 16.0 * np.pi * width / dxi))))
        dx = 2 * np.pi / (n_fft * dxi)
        # the packet sweeps at `speed`; resolve its width in time
        n_t = max(samples, min(int(2.0 * c_time * speed * width / 0.25) + 1, 8192))
        t_nodes = np.linspace(-c_time, c_time, n_t)
        best = np.zeros(n_fft)
        c = np.zeros(n_fft, dtype=complex)
        for t in t_nodes:
            c[:n_xi] = f * np.exp(1j * t * xi**a)
            mag = np.abs(np.fft.ifft(c)) * (n_fft * dxi)
            np.maximum(best, mag, out=best)
        val = math.sqrt(float(np.sum(best**2) * dx))
        logs.append(math.log2(val))
    predicted = 0.5 if a == 1.0 else a / 4.0
    return fit_line(list(k_range), logs, predicted, {"a": a, "c_time": c_time})


# --------------------------------------------------------------------------
# weighted bilinear form
# --------------------------------------------------------------------------

def hls_parameters(n: int, q) -> tuple[float, float, float, float]:
    """(alpha, beta, lam, r_exp) of the double-weight form at dimension 1."""
    q = float(parse_exponent(q))
    alpha = (0.5 - 1.0 / q) * (n - 1)
    lam = 0.5 - 1.0 / q
    return alpha, alpha, lam, q / (q - 1.0)


def hls_constraints_ok(alpha: float, beta: float, lam: float, r_exp: float, s_exp: float) -> bool:
    """The double-weight hypotheses in dimension d = 1."""
    if not (1 < r_exp < np.inf and 1 < s_exp < np.inf):
        return False
    if 1 / r_exp + 1 / s_exp < 1:
        return False
    if not (0 < lam < 1):
        return False
    if alpha + beta < 0:
        return False
    if not (1 - 1 / r_exp - lam < alpha < 1 - 1 / r_exp):
        return False
    return abs(1 / r_exp + 1 / s_exp + (lam + alpha + beta) - 2) < 1e-12


def hls_bilinear_form(
    f_interval: tuple, g_interval: tuple, alpha: float, beta: float, lam: float, cells: int
) -> float:
    """Midpoint quadrature of  iint f(x) g(y) / (|x|^a |x-y|^lam |y|^b) dx dy
    for indicator data (offset node counts avoid the diagonal exactly)."""
    ax, bx = f_interval
    ay, by = g_interval
    nx, ny = cells, cells + 17
    x = ax + (bx - ax) * (np.arange(nx) + 0.5) / nx
    y = ay + (by - ay) * (np.arange(ny) + 0.5) / ny
    wx = (bx - ax) / nx
    wy = (by - ay) / ny
    dxy = np.abs(x[:, None] - y[None, :])
    kern = 1.0 / (np.abs(x[:, None]) ** alpha * dxy**lam * np.abs(y[None, :]) ** beta)
    return float(np.sum(kern) * wx * wy)


def hls_bilinear_check(q, n: int = 2, refinements: int = 4) -> BoundReport:
    """Discretized double-weight bilinear form on indicator families across
    scales and separations; PASS = the normalized ratios stay at most 25 and
    stable under dyadic quadrature refinement from 64 cells."""
    alpha, beta, lam, r_exp = hls_parameters(n, q)
    if not hls_constraints_ok(alpha, beta, lam, r_exp, r_exp):
        raise ParameterViolation(
            f"(alpha, beta, lam, r') = ({alpha:.3g}, {beta:.3g}, {lam:.3g}, {r_exp:.3g}) "
            "violate the double-weight hypotheses"
        )
    trial_families = []
    for i in (-4, -2, 0, 2, 4):
        iv = (2.0**i, 2.0 ** (i + 1))
        trial_families.append((iv, iv))                       # near-diagonal
        trial_families.append((iv, (2.0 ** (i + 2), 2.0 ** (i + 3))))  # separated
    trial_families.append(((2.0**-6, 2.0**-5), (2.0**-6, 2.0**-5)))    # near-origin
    trial_families.append(((2.0**-6, 2.0**-5), (1.0, 2.0)))
    qd = r_exp  # trial norms live in L^{q'}
    ratios = []
    stability = []
    for f_iv, g_iv in trial_families:
        vals = [
            hls_bilinear_form(f_iv, g_iv, alpha, beta, lam, 64 * 2**lvl)
            for lvl in range(refinements)
        ]
        nf = (f_iv[1] - f_iv[0]) ** (1.0 / qd)
        ng = (g_iv[1] - g_iv[0]) ** (1.0 / qd)
        ratios.append(vals[-1] / (nf * ng))
        stability.append(abs(vals[-1] - vals[-2]) / vals[-1])
    mx = float(np.max(ratios))
    stable = float(np.max(stability)) < 0.05
    return BoundReport(
        tuple(ratios), mx, 25.0, bool(mx <= 25.0 and stable),
        {"alpha": alpha, "lam": lam, "stability": tuple(stability)},
    )


# --------------------------------------------------------------------------
# sharpness counterexamples
# --------------------------------------------------------------------------

def counterexample_wave(n: int, q, R_range: Sequence[float]) -> GrowthReport:
    """Reduced sharpness probe for the first-form range: the weighted main
    term of the half-wave evolution of flat band data,

        N(R)^q = int_2^R r^((n-1)(1-q/2)) int_R |W(t,r)|^q dt dr,
        W(t,r) = (1/2)[ e^{-i beta} Ghat(t+r) + e^{i beta} Ghat(t-r) ],

    with Ghat the band profile's 1-D Fourier transform, tabulated on
    |tau| < 80.  At q = 2n/(n-1) the radius weight is exactly 1/r against a
    translation-invariant time norm, so N(R) grows like a power of log R;
    for larger q it saturates (last relative increment <= 1e-2)."""
    q = float(parse_exponent(q))
    if math.isinf(q):
        raise OutOfRangeQ("wave sharpness probe needs q < inf")
    L = 80.0
    beta = (n - 1) * np.pi / 4.0
    s = np.linspace(0.5, 2.0, 6001)
    ws = trapezoid_weights(s)
    g = dyadic_cutoff(0, s) * np.where(s <= 10.0, 1.0, 0.0)
    tau = np.arange(0.0, L, 0.05)
    ghat = np.exp(1j * np.outer(tau, s)) @ (g * ws)
    # hermitian extension: Ghat(-tau) = conj(Ghat(tau)) for real data
    tau_full = np.concatenate([-tau[:0:-1], tau])
    ghat_full = np.concatenate([np.conj(ghat[:0:-1]), ghat])

    def ghat_at(x):
        re = np.interp(x, tau_full, ghat_full.real, left=0.0, right=0.0)
        im = np.interp(x, tau_full, ghat_full.imag, left=0.0, right=0.0)
        return re + 1j * im

    # separated bumps: int |W|^q dt -> 2 (1/2)^q int_R |Ghat|^q dtau
    int_ghat_q = 2.0 * float(np.sum(np.abs(ghat) ** q) * 0.05) - float(np.abs(ghat[0]) ** q) * 0.05
    p_inf = 2.0 * 0.5**q * int_ghat_q

    def p_of_r(r):
        # bumps at t = -r and t = +r; integrate each window, overlap-safe
        if 2 * r > 2 * L:
            return p_inf
        t = np.arange(-r - L, r + L, 0.05)
        w = np.abs(0.5 * (np.exp(-1j * beta) * ghat_at(t + r) + np.exp(1j * beta) * ghat_at(t - r)))
        return float(np.sum(w**q) * 0.05)

    R_max = float(max(R_range))
    r_fine = np.arange(2.0, min(L + 2.0, R_max), 0.2)
    p_vals = np.array([p_of_r(r) for r in r_fine])
    weight = r_fine ** ((n - 1) * (1 - q / 2.0))
    cum_fine = np.cumsum(p_vals * weight) * 0.2

    def cumulative(R):
        if R <= r_fine[-1]:
            return float(np.interp(R, r_fine, cum_fine))
        # analytic continuation: constant P times the power weight
        base = float(cum_fine[-1])
        w_exp = (n - 1) * (1 - q / 2.0)
        a = r_fine[-1]
        if abs(w_exp + 1.0) < 1e-12:
            return base + p_inf * math.log(R / a)
        return base + p_inf * (R ** (w_exp + 1) - a ** (w_exp + 1)) / (w_exp + 1)

    values = [cumulative(float(R)) ** (1.0 / q) for R in R_range]
    increments = np.diff(values) / np.asarray(values[1:])
    monotone = bool(np.all(np.diff(values) > 0))
    saturated = bool(increments.size and increments[-1] <= 1e-2)
    powers = np.asarray(values) ** q
    slope = float(np.polyfit(np.log2(np.asarray(R_range, dtype=float)), powers, 1)[0])
    return GrowthReport(
        tuple(float(R) for R in R_range), tuple(values), monotone, saturated,
        slope, None, {"q": q, "n": n, "relative_increments": tuple(increments)},
    )


def counterexample_schrodinger(
    n: int,
    q,
    j_range: Sequence[int],
    density: float = 1.0,
) -> ExponentFit:
    """Sharpness probe for the second-form range: concentrated band data
    h_j = (2 w)^(-1/2) 1_{|s-1|<=w}, w = 2^-j, measured in the weighted
    reduced norm over the moving region r ~ 2^(2j), |r - 2t| <~ 2^j, and
    fitted against the predicted rate (2n+1)/q - (2n-1)/2."""
    q = float(parse_exponent(q))
    if math.isinf(q):
        raise OutOfRangeQ("Schrodinger sharpness probe needs q < inf")
    logs = []
    for j in j_range:
        w = 2.0 ** (-j)
        s = np.linspace(1.0 - w, 1.0 + w, int(256 * density) + 1)
        ws = trapezoid_weights(s)
        h = dyadic_cutoff(0, s) * (2.0 * w) ** (-0.5)
        r = np.linspace(2.0 ** (2 * j - 1), 2.0 ** (2 * j + 1), int(192 * density) + 1)
        u = np.linspace(-(2.0**j), 2.0**j, int(128 * density) + 1)
        wr = trapezoid_weights(r)
        wu = trapezoid_weights(u) / 2.0  # dt = du/2 at fixed r
        t_grid = (r[None, :] - u[:, None]) / 2.0
        # I(t, r) = int h(s) e^{i(t s^2 - r s)} ds on the (u, r) region
        acc = np.zeros((u.size, r.size), dtype=complex)
        for si, wsi, hi in zip(s, ws, h):
            acc += (wsi * hi) * np.exp(1j * (t_grid * si**2 - r[None, :] * si))
        mag = np.abs(acc)
        weight = r ** ((n - 1) * (1 - q / 2.0))
        power = float(np.sum(wu[:, None] * wr[None, :] * mag**q * weight[None, :]))
        logs.append(math.log2(power ** (1.0 / q)))
    predicted = (2 * n + 1) / q - (2 * n - 1) / 2.0
    return fit_line(list(j_range), logs, predicted, {"q": q, "n": n})


def knapp_fractional(
    sigma: float,
    delta_range: Sequence[float],
    q: float,
    r: float,
    density: float = 1.0,
) -> GrowthReport:
    """Tube-data probe in d = 2: evaluates the non-radial evolution of
    1_D, D = {|xi1 - 1| <= delta, |xi2| <= delta}, on the co-moving region
    |t| <= delta^-2 / 2, |sigma t + x1| <= 1 / (2 delta), |x2| <= 1 / (2 delta),
    and fits the L^q_t L^r_x / L^2 ratio against delta."""
    if not (1.0 < sigma < 2.0):
        raise OutOfRangeSigma(f"probe defined for 1 < sigma < 2, got {sigma}")
    if math.isinf(q) or math.isinf(r):
        raise OutOfRangeQ(f"tube probe needs finite q and r, got q={q}, r={r}")
    d = 2
    logs = []
    umins, umaxs = [], []
    for delta in delta_range:
        n1 = max(int(24 * sigma * 0.5 * density / delta), 64)
        xi1 = np.linspace(1 - delta, 1 + delta, n1)
        xi2 = np.linspace(-delta, delta, int(48 * density))
        dxi1 = xi1[1] - xi1[0]
        dxi2 = xi2[1] - xi2[0]
        absxi = np.sqrt(xi1[:, None] ** 2 + xi2[None, :] ** 2)
        t_nodes = np.linspace(-0.5 / delta**2, 0.5 / delta**2, int(24 * density) + 1)
        x1_off = np.linspace(-0.5 / delta, 0.5 / delta, int(16 * density) + 1)
        x2 = np.linspace(-0.5 / delta, 0.5 / delta, int(16 * density) + 1)
        e2 = np.exp(1j * np.outer(xi2, x2))  # (n2, nx2)
        inner_norms = []
        u_abs_all = []
        for t in t_nodes:
            phase = np.exp(1j * t * absxi**sigma)  # (n1, n2)
            x1 = -sigma * t + x1_off
            e1 = np.exp(1j * np.outer(x1, xi1))  # (nx1, n1)
            u = (e1 @ phase) @ e2  # (nx1, nx2)
            mag = np.abs(u) * dxi1 * dxi2
            u_abs_all.append(mag)
            wx1 = trapezoid_weights(x1)
            wx2 = trapezoid_weights(x2)
            inner = (np.sum(mag**r * wx1[:, None] * wx2[None, :])) ** (1.0 / r)
            inner_norms.append(inner)
        wt = trapezoid_weights(t_nodes)
        norm = float(np.sum(wt * np.asarray(inner_norms) ** q) ** (1.0 / q))
        area = 4.0 * delta**2
        ratio = norm / math.sqrt(area)
        logs.append(math.log2(ratio))
        mags = np.stack(u_abs_all) / area
        umins.append(float(mags.min()))
        umaxs.append(float(mags.max()))
    idx = np.log2(np.asarray(delta_range, dtype=float))
    slope, intercept = np.polyfit(idx, logs, 1)
    predicted = -(2.0 / q + d / r - d / 2.0)
    resid = float(np.max(np.abs(np.asarray(logs) - (slope * idx + intercept))))
    return GrowthReport(
        tuple(float(x) for x in delta_range), tuple(logs),
        monotone=True, saturated=False, slope=float(slope), predicted_slope=predicted,
        meta={"max_residual": resid, "u_over_D_min": tuple(umins), "u_over_D_max": tuple(umaxs)},
    )


# --------------------------------------------------------------------------
# retarded estimates and the open-segment probe
# --------------------------------------------------------------------------

def retarded_strichartz_check(
    symbol: DispersionSymbol,
    n: int,
    pair: tuple,
    pair_t: tuple,
    trials: int = 4,
    seed: int = 0,
) -> BoundReport:
    """Boundedness probe of the retarded map F -> int_0^t S(t-s) P_0 F(s) ds
    from L^{qt'} L^{rt'} to L^q L^r for randomized band-limited forcings on
    0 <= t <= 24; PASS when every ratio is at most 20.

    Forcing and response are synthesized on one uniform frequency grid
    (at most 0.5 rad of time phase per step) through one folded kernel
    s^(n-1) K_n(s r)."""
    q, r = (parse_exponent(pair[0]), parse_exponent(pair[1]))
    qt, rt = (parse_exponent(pair_t[0]), parse_exponent(pair_t[1]))
    family = "wave" if symbol.name == "wave" else "schrodinger"
    for p_ in (pair, pair_t):
        if family == "wave":
            v = is_radial_wave_admissible(n, *p_)
        else:
            v = is_radial_schrodinger_admissible(n, *p_)
        if not v.admissible:
            raise AdmissibilityViolation(f"pair {p_} not {family}-admissible")
    rng = np.random.default_rng(seed)
    T = 24.0
    k = 0
    lo, hi = band_edges(k)
    sup_dp = symbol.sup_dphi(lo, hi)
    ns = max(int((hi - lo) * T * sup_dp / 0.5), 512)
    s = np.linspace(lo, hi, ns)
    ws = trapezoid_weights(s)
    omega = symbol.phi(s)
    t_nodes = np.linspace(0.0, T, 384)
    r_max = 1.1 * T * sup_dp + 60.0
    r_nodes = np.linspace(1e-6, r_max, int(r_max / (np.pi / (6.0 * hi))) + 2)
    grid = PhysicalGrid(r_nodes, t_nodes)
    kernel = radial_kernel(n, np.outer(s, r_nodes)) * (s ** (n - 1))[:, None]
    ratios = []
    for trial in range(trials):
        amp = random_band_amplitude(n, k, rng)
        width = 2.0 ** (trial % 4)
        env = np.exp(-((t_nodes - T / 4.0) ** 2) / (2 * width**2))
        fvals = env[:, None] * amp(s)[None, :]
        coeff = duhamel_coefficients(omega, t_nodes, fvals)
        ret = SpaceTimeField(grid, (coeff * ws[None, :]) @ kernel, n)
        num = mixed_norm(ret, MixedNormSpec(float(q), float(r) if r != math.inf else math.inf))
        f_field = SpaceTimeField(grid, (fvals * ws[None, :]) @ kernel, n)
        qtd, rtd = float(dual(qt)), dual(rt)
        rtd = float(rtd) if rtd != math.inf else math.inf
        den = mixed_norm(f_field, MixedNormSpec(qtd, rtd))
        ratios.append(num / den)
    mx = float(np.max(ratios))
    return BoundReport(tuple(ratios), mx, 20.0, mx <= 20.0,
                       {"pair": (str(q), str(r)), "pair_t": (str(qt), str(rt)), "seed": seed})


def conjecture_probe(
    a: float,
    n: int,
    R_values: Sequence[float],
    T: float = 256.0,
) -> GrowthReport:
    """Open-segment experiment: || e^{i t D^a} P_0 f ||_{L^2_t L^{r*}_x} on
    2 <= r <= R for growing R, r* = (4n-2)/(2n-3).  Reports growth against
    log R without asserting a verdict (the endpoint's status is open)."""
    symbol = fractional_symbol(a)
    r_star = (4.0 * n - 2.0) / (2.0 * n - 3.0)
    amp = canonical_band_amplitude(n, 0)
    R_max = float(max(R_values))
    sampler = BandFieldSampler(symbol, n, 0, amp, T, r_window=(0.0, R_max * 1.05))
    om = sphere_area(n)
    # each cut integrates the piecewise-linear interpolant of |F|^r* r^(n-1)
    # through the sampled radii from 2 to R: the cumulative trapezoid C_i up
    # to the last node r_i <= x, plus the partial panel [r_i, x]
    r_all = np.concatenate([sampler.r_in, sampler.r_out])
    x = np.asarray([2.0] + [float(R) for R in R_values])
    i = np.searchsorted(r_all, x, side="right") - 1
    dx = x - r_all[i]
    lam = dx / (r_all[i + 1] - r_all[i])
    powers = np.zeros(len(R_values))
    for t, wt in zip(sampler.t, sampler.wt):
        f_in, f_out = sampler.field_at(t)
        f = np.concatenate([np.abs(f_in), np.abs(f_out)]) ** r_star * r_all ** (n - 1)
        cum = np.concatenate([[0.0], np.cumsum(np.diff(r_all) * (f[1:] + f[:-1]) / 2.0)])
        at_x = cum[i] + dx * ((2.0 - lam) * f[i] + lam * f[i + 1]) / 2.0
        inner = (om * (at_x[1:] - at_x[0])) ** (1.0 / r_star)
        powers += 2.0 * wt * inner**2
    values = np.sqrt(powers)
    increments = np.diff(values) / values[1:]
    slope = float(np.polyfit(np.log2(np.asarray(R_values, dtype=float)), values**2, 1)[0])
    return GrowthReport(
        tuple(float(R) for R in R_values), tuple(float(v) for v in values),
        bool(np.all(np.diff(values) > 0)), bool(increments.size and increments[-1] <= 1e-2),
        slope, None, {"r_star": r_star, "T": T},
    )
