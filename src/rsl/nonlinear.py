"""Picard/Duhamel fixed-point solvers for the radial semilinear problems.

All three schemes iterate  u^(m+1) = linear + mu * retarded(|u^m|^p u^m)  in
frequency space.  The linear group and the per-step retarded integrals use
the exact multiplier (propagator._etd_coeffs); the nonlinearity is evaluated
pointwise on a physical radius grid reached through a fixed quadrature
synthesis/analysis pair.  Because analysis is the weighted adjoint of
synthesis, the discrete nonlinear mass flux Im <|u|^p u, u> vanishes exactly
and the measured mass drift isolates the time-integration error.

Generator multipliers (frequency symbol of -i * linear part):

    semilinear Schrodinger   omega(s) = -s^2        (group e^{-i t s^2})
    fractional Schrodinger   omega(s) = +s^sigma
    semilinear wave          cos(ts), sin(ts)/s pair on (u, u_t)

Negative-regularity data are synthesized band-limited with a prescribed
homogeneous Sobolev norm; the truncation band is recorded in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .admissibility import PairSelection, choose_pairs_nls, choose_pairs_nlw, s0
from .bessel import radial_kernel
from .cutoffs import smooth_bump
from .dispersion import DispersionSymbol
from .errors import NonContraction, OutOfRangeS, OutOfRangeSigma
from .grids import FrequencyGrid, PhysicalGrid, trapezoid_weights
from .norms import sobolev_norm
from .propagator import SpaceTimeField, _etd_coeffs, duhamel_coefficients
from .transform import RadialProfile, sphere_area


# --------------------------------------------------------------------------
# problems and grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearProblem:
    kind: str                     # nls | nlw | fnls
    n: int
    p: float
    mu: int
    s: float
    data: RadialProfile           # u0_hat
    data_velocity: Optional[RadialProfile] = None  # u1_hat (nlw)
    sigma: Optional[float] = None

    def omega(self, s: np.ndarray) -> np.ndarray:
        if self.kind == "nls":
            return -np.asarray(s, dtype=float) ** 2
        if self.kind == "fnls":
            return np.asarray(s, dtype=float) ** self.sigma
        raise ValueError("wave evolution uses the cos/sin pair, not omega")

    def generator_symbol(self) -> DispersionSymbol:
        if self.kind == "nls":
            return DispersionSymbol(
                "nls-generator",
                phi=lambda s: -np.asarray(s, dtype=float) ** 2,
                dphi=lambda s: -2.0 * np.asarray(s, dtype=float),
                d2phi=lambda s: -2.0 * np.ones_like(np.asarray(s, dtype=float)),
                m1=2.0, m2=2.0, alpha1=2.0, alpha2=2.0,
            )
        if self.kind == "fnls":
            sig = self.sigma
            return DispersionSymbol(
                f"fnls-generator:{sig:g}",
                phi=lambda s: np.asarray(s, dtype=float) ** sig,
                dphi=lambda s: sig * np.asarray(s, dtype=float) ** (sig - 1.0),
                d2phi=lambda s: sig * (sig - 1.0) * np.asarray(s, dtype=float) ** (sig - 2.0),
                m1=sig, m2=sig, alpha1=sig, alpha2=sig,
            )
        raise ValueError("no single generator symbol for the wave system")


@dataclass(frozen=True)
class SolverGrid:
    """Fixed quadrature pair between the frequency and radius grids."""

    freq: FrequencyGrid
    r: np.ndarray
    wr: np.ndarray
    t: np.ndarray
    synth: np.ndarray    # (n_s, n_r): ws s^(n-1) K_n(s r) folded
    anal: np.ndarray     # (n_r, n_s): wr r^(n-1) K_n(s r) folded
    n: int
    band: tuple

    def to_physical(self, coeff: np.ndarray) -> np.ndarray:
        return coeff @ self.synth

    def to_frequency(self, phys: np.ndarray) -> np.ndarray:
        return phys @ self.anal


def build_solver_grid(
    n: int,
    band: tuple,
    p: float,
    T: float,
    group_speed: float,
    s_cap_factor: float = 1.1,
    phase_per_panel: float = 4.0,
    panel_order: int = 10,
    r_margin: float = 60.0,
) -> SolverGrid:
    """Grids Nyquist-matched to (p+1) times the data band.

    The radius grid resolves oscillation up to (p+1) s_max; the frequency
    grid extends to (p+1) s_max (recorded truncation band) and resolves the
    kernel oscillation at the largest radius.  Both directions use composite
    Gauss-Legendre panels, so the analysis/synthesis round trip is accurate
    to ~1e-10 on band-limited data (uniform trapezoid would leave an O(dr^2)
    boundary term at r = 0).
    """
    from .grids import gauss_panel_grid

    s_lo_d, s_hi_d = band
    s_hi = (p + 1.0) * s_hi_d * s_cap_factor
    s_lo = s_lo_d / 8.0
    r_max = 1.15 * T * group_speed + r_margin
    n_pan_s = int(np.ceil((s_hi - s_lo) * r_max / phase_per_panel)) + 2
    n_pan_r = int(np.ceil(r_max * s_hi / phase_per_panel)) + 2
    freq = gauss_panel_grid(s_lo, s_hi, n_pan_s, panel_order)
    rgrid = gauss_panel_grid(1e-9, r_max, n_pan_r, panel_order)
    r, wr = rgrid.nodes, rgrid.weights
    s = freq.nodes
    kern = radial_kernel(n, np.outer(s, r))
    synth = kern * (freq.weights * s ** (n - 1))[:, None]
    anal = (kern * (wr * r ** (n - 1))[None, :]).T
    nt = int(np.ceil(T * (p + 1.0) * max(abs(s_hi_d) ** 2, 1.0) * 8.0 / np.pi)) + 1
    t = np.linspace(0.0, T, max(nt, 65))
    return SolverGrid(freq, r, wr, t, synth, anal, n, band)


def _time_grid_for(problem: NonlinearProblem, band: tuple, T: float) -> float:
    """Group speed bound used for the radius extent."""
    s_hi = band[1]
    if problem.kind == "nls":
        return 2.0 * s_hi
    if problem.kind == "fnls":
        return problem.sigma * s_hi ** (problem.sigma - 1.0)
    return 1.0


# --------------------------------------------------------------------------
# traces and diagnostics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardTrace:
    iterate_norms: tuple
    diff_norms: tuple
    contraction_factor: float
    converged: bool
    mass_drift: float
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScatteringDiagnostic:
    times: tuple
    deviation: tuple
    u_plus: RadialProfile

    @property
    def tail_decreasing(self) -> bool:
        d = np.asarray(self.deviation)
        tail = d[len(d) // 2:]
        return bool(np.all(np.diff(tail) <= 1e-12 + 0.05 * np.maximum(tail[:-1], 1e-300)))


def _mass(freq: FrequencyGrid, coeff: np.ndarray, n: int) -> float:
    return float(sphere_area(n) * np.sum(freq.weights * np.abs(coeff) ** 2 * freq.nodes ** (n - 1)))


# --------------------------------------------------------------------------
# Picard iteration (Schrodinger-type)
# --------------------------------------------------------------------------

def _resolution_norm(grid: SolverGrid, phys: np.ndarray, n: int, q: float, r: float) -> float:
    om = sphere_area(n)
    meas = grid.wr * grid.r ** (n - 1)
    if math.isinf(r):
        inner = np.abs(phys).max(axis=1)
    else:
        inner = (om * (np.abs(phys) ** r) @ meas) ** (1.0 / r)
    wt = trapezoid_weights(grid.t)
    if math.isinf(q):
        return float(inner.max())
    return float(np.sum(wt * inner**q) ** (1.0 / q))


def picard_solve(
    problem: NonlinearProblem,
    pairs: PairSelection,
    T: float,
    grid: Optional[SolverGrid] = None,
    max_iter: int = 10,
    tol: float = 1e-10,
    nonlinearity_scale: float = 1.0,
) -> tuple[SpaceTimeField, PicardTrace]:
    """Iterate the Duhamel map until the resolution-norm difference of
    successive iterates falls below tol (relative to the first iterate).

    `nonlinearity_scale` multiplies the nonlinear coefficient; 0 reproduces
    the linear evolution exactly (bit-for-bit, same code path)."""
    if problem.kind == "nlw":
        return _picard_solve_wave(problem, pairs, T, grid, max_iter, tol, nonlinearity_scale)
    band = (float(problem.data.grid.nodes[0]), float(problem.data.grid.nodes[-1]))
    if grid is None:
        grid = build_solver_grid(problem.n, band, problem.p, T, _time_grid_for(problem, band, T))
    s = grid.freq.nodes
    omega = problem.omega(s)
    h0 = problem.data.at(s)
    t = grid.t
    linear = np.exp(1j * np.outer(t, omega)) * h0[None, :]
    qr = (float(pairs.q), float(pairs.r))
    coeff = linear
    phys = grid.to_physical(coeff)
    iterate_norms = [_resolution_norm(grid, phys, problem.n, *qr)]
    diff_norms = []
    mu_eff = problem.mu * nonlinearity_scale
    converged = False
    for it in range(max_iter):
        if mu_eff == 0:
            converged = True
            break
        forcing = grid.to_frequency(np.abs(phys) ** problem.p * phys)
        coeff_new = linear + duhamel_coefficients(omega, t, mu_eff * forcing)
        phys_new = grid.to_physical(coeff_new)
        diff = _resolution_norm(grid, phys_new - phys, problem.n, *qr)
        diff_norms.append(diff)
        coeff, phys = coeff_new, phys_new
        iterate_norms.append(_resolution_norm(grid, phys, problem.n, *qr))
        if diff <= tol * max(iterate_norms[0], 1e-300):
            converged = True
            break
        if len(diff_norms) >= 3 and all(
            diff_norms[-i] >= diff_norms[-i - 1] for i in (1, 2)
        ) and diff_norms[-1] > iterate_norms[0]:
            raise NonContraction(f"diff norms non-decreasing: {diff_norms[-3:]}")
    factors = [
        diff_norms[i + 1] / diff_norms[i]
        for i in range(len(diff_norms) - 1)
        if diff_norms[i] > 0
    ]
    contraction = float(np.max(factors)) if factors else 0.0
    masses = [_mass(grid.freq, coeff[i], problem.n) for i in range(0, t.size, max(t.size // 16, 1))]
    drift = float(np.max(np.abs(np.asarray(masses) - masses[0])) / masses[0]) if masses[0] > 0 else 0.0
    trace = PicardTrace(
        tuple(iterate_norms), tuple(diff_norms), contraction, converged, drift,
        {"band": band, "T": T, "pair": qr},
    )
    pgrid = PhysicalGrid(grid.r[1:], t) if grid.r[0] <= 0 else PhysicalGrid(grid.r, t)
    vals = phys[:, 1:] if grid.r[0] <= 0 else phys
    fld = SpaceTimeField(pgrid, vals, problem.n, source="duhamel", freq=(grid.freq, coeff))
    return fld, trace


def scattering_state(field: SpaceTimeField, symbol: DispersionSymbol, s: float) -> ScatteringDiagnostic:
    """Pull the stored frequency trajectory back along the free group and
    report || v(t) - v(T) ||_{H^s-dot} on the time grid."""
    if field.freq is None:
        raise ValueError("field carries no frequency trajectory")
    fgrid, coeff = field.freq
    t = field.grid.t_nodes
    omega = symbol.phi(fgrid.nodes)
    pullback = np.exp(-1j * np.outer(t, omega)) * coeff
    u_plus = RadialProfile(fgrid, pullback[-1], field.n)
    devs = []
    for i in range(t.size):
        diff = RadialProfile(fgrid, pullback[i] - pullback[-1], field.n)
        devs.append(sobolev_norm(diff, s))
    return ScatteringDiagnostic(tuple(t), tuple(devs), u_plus)


# --------------------------------------------------------------------------
# wave system
# --------------------------------------------------------------------------

def _picard_solve_wave(
    problem: NonlinearProblem,
    pairs: PairSelection,
    T: float,
    grid: Optional[SolverGrid],
    max_iter: int,
    tol: float,
    nonlinearity_scale: float,
) -> tuple[SpaceTimeField, PicardTrace]:
    band = (float(problem.data.grid.nodes[0]), float(problem.data.grid.nodes[-1]))
    if grid is None:
        grid = build_solver_grid(problem.n, band, problem.p, T, 1.0)
    s = grid.freq.nodes
    t = grid.t
    dt = t[1] - t[0]

    h0 = problem.data.at(s)
    h1 = problem.data_velocity.at(s) if problem.data_velocity is not None else np.zeros_like(h0)
    cos_t = np.cos(np.outer(t, s))
    sinc_t = np.sin(np.outer(t, s)) / s[None, :]
    lin_u = cos_t * h0[None, :] + sinc_t * h1[None, :]
    lin_v = -np.sin(np.outer(t, s)) * s[None, :] * h0[None, :] + cos_t * h1[None, :]

    def retarded(F):
        # (u, v) += int_0^t [sin((t-tau)s)/s, cos((t-tau)s)] F(tau) dtau per step
        z = 1j * s * dt
        a_c, b_c = _etd_coeffs(z)
        cd, sd = np.cos(s * dt), np.sin(s * dt)
        u = np.zeros_like(F)
        v = np.zeros_like(F)
        for i in range(1, t.size):
            step = dt * (F[i - 1] * a_c + F[i] * b_c)
            iu = step.imag / s
            iv = step.real
            u_prev, v_prev = u[i - 1], v[i - 1]
            u[i] = cd * u_prev + sd / s * v_prev + iu
            v[i] = -s * sd * u_prev + cd * v_prev + iv
        return u, v

    qr = (float(pairs.q), float(pairs.r) if pairs.r != math.inf else math.inf)
    coeff_u = lin_u.astype(complex)
    coeff_v = lin_v.astype(complex)
    phys = grid.to_physical(coeff_u)
    iterate_norms = [_resolution_norm(grid, phys, problem.n, *qr)]
    diff_norms = []
    mu_eff = problem.mu * nonlinearity_scale
    converged = False
    for it in range(max_iter):
        if mu_eff == 0:
            converged = True
            break
        u_phys = np.real(phys)
        forcing = grid.to_frequency(mu_eff * np.abs(u_phys) ** problem.p * u_phys)
        ret_u, ret_v = retarded(forcing.astype(complex))
        coeff_u_new = lin_u + ret_u
        coeff_v_new = lin_v + ret_v
        phys_new = grid.to_physical(coeff_u_new)
        diff = _resolution_norm(grid, phys_new - phys, problem.n, *qr)
        diff_norms.append(diff)
        coeff_u, coeff_v, phys = coeff_u_new, coeff_v_new, phys_new
        iterate_norms.append(_resolution_norm(grid, phys, problem.n, *qr))
        if diff <= tol * max(iterate_norms[0], 1e-300):
            converged = True
            break
        if len(diff_norms) >= 3 and all(
            diff_norms[-i] >= diff_norms[-i - 1] for i in (1, 2)
        ) and diff_norms[-1] > iterate_norms[0]:
            raise NonContraction(f"diff norms non-decreasing: {diff_norms[-3:]}")
    factors = [
        diff_norms[i + 1] / diff_norms[i]
        for i in range(len(diff_norms) - 1)
        if diff_norms[i] > 0
    ]
    contraction = float(np.max(factors)) if factors else 0.0
    trace = PicardTrace(
        tuple(iterate_norms), tuple(diff_norms), contraction, converged, 0.0,
        {"band": band, "T": T, "pair": qr, "wave_pair_state": True},
    )
    pgrid = PhysicalGrid(grid.r[1:], t) if grid.r[0] <= 0 else PhysicalGrid(grid.r, t)
    vals = phys[:, 1:] if grid.r[0] <= 0 else phys
    fld = SpaceTimeField(
        pgrid, vals, problem.n, source="duhamel",
        freq=(grid.freq, coeff_u), freq_velocity=coeff_v,
    )
    return fld, trace


def wave_scattering_state(field: SpaceTimeField, s_w: float) -> ScatteringDiagnostic:
    """Free-group pullback of the (u, u_t) pair; deviation in the product
    norm H^{s_w}-dot x H^{s_w - 1}-dot."""
    fgrid, coeff_u = field.freq
    coeff_v = field.freq_velocity
    t = field.grid.t_nodes
    s = fgrid.nodes
    devs = []
    a_list = []
    for i in range(t.size):
        ct, st = np.cos(t[i] * s), np.sin(t[i] * s)
        a = ct * coeff_u[i] - st / s * coeff_v[i]
        b = s * st * coeff_u[i] + ct * coeff_v[i]
        a_list.append((a, b))
    a_fin, b_fin = a_list[-1]
    for a, b in a_list:
        da = RadialProfile(fgrid, a - a_fin, field.n)
        db = RadialProfile(fgrid, b - b_fin, field.n)
        devs.append(sobolev_norm(da, s_w) + sobolev_norm(db, s_w - 1.0))
    return ScatteringDiagnostic(tuple(t), tuple(devs), RadialProfile(fgrid, a_fin, field.n))


# --------------------------------------------------------------------------
# data synthesis and experiments
# --------------------------------------------------------------------------

def random_band_profile(
    n: int,
    rng: np.random.Generator,
    band: tuple = (0.5, 2.0),
    s_norm: float = 0.0,
    target: float = 1.0,
    controls: int = 10,
    real_valued: bool = False,
) -> RadialProfile:
    """Band-limited random radial datum with prescribed H^{s_norm}-dot norm.

    Chebyshev coefficients in the logarithmic band coordinate keep the datum
    C-infinity, so its physical profile decays faster than any power and the
    solver's truncated analysis quadrature stays accurate."""
    lo, hi = band
    ctrl = rng.standard_normal(controls) + 1j * rng.standard_normal(controls)
    if real_valued:
        ctrl = ctrl.real + 0j
    mid = math.sqrt(lo * hi)
    halfw = (hi / lo) ** 0.5

    def envelope(s):
        # smooth taper equal to 1 on the middle half of the band, 0 outside it
        u = np.log(np.asarray(s, dtype=float) / mid) / np.log(halfw)
        return smooth_bump(2.0 * u)

    def raw(s):
        s = np.asarray(s, dtype=float)
        u = np.log(np.maximum(s, 1e-300) / mid) / np.log(halfw)
        u = np.clip(u, -1.0, 1.0)
        vals = np.polynomial.chebyshev.chebval(u, ctrl)
        return envelope(s) * vals

    s_ref = np.linspace(lo * 0.99, hi * 1.01, 4001)
    w_ref = trapezoid_weights(s_ref)
    z2 = sphere_area(n) * np.sum(
        w_ref * np.abs(raw(s_ref)) ** 2 * s_ref ** (2 * s_norm + n - 1)
    )
    scale = target / math.sqrt(float(z2))

    def fn(s, _raw=raw, _sc=scale):
        return _sc * _raw(s)

    from .grids import uniform_grid

    grid = uniform_grid(lo, hi, 1025)
    return RadialProfile(grid, fn(grid.nodes), n, fn=fn)


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    params: dict
    pair: tuple
    runs: tuple          # per-seed dicts
    all_converged: bool
    max_contraction: float
    max_mass_drift: float
    meta: dict = field(default_factory=dict)


def nls_small_data_experiment(
    n: int,
    s_sch,
    delta: float,
    seeds: Sequence[int],
    T: float = 16.0,
    band: tuple = (0.5, 2.0),
    max_iter: int = 8,
    tol: float = 1e-10,
) -> ExperimentReport:
    """Small-data runs of the semilinear Schrodinger fixed point at critical
    regularity s_sch < 0: contraction, the resolution-norm bound, and the
    scattering pullback, per seed."""
    from fractions import Fraction

    s_sch_f = Fraction(s_sch).limit_denominator(10**9) if not isinstance(s_sch, Fraction) else s_sch
    lo_bound = Fraction(1 - n, 2 * n + 1)
    if not (lo_bound <= s_sch_f < 0):
        raise OutOfRangeS(f"need (1-n)/(2n+1) <= s_sch < 0, got {s_sch}")
    pairs = choose_pairs_nls(n, s_sch_f, s_sch_f)
    p = float(pairs.p)
    runs = []
    grid = None
    for seed in seeds:
        rng = np.random.default_rng(seed)
        data = random_band_profile(n, rng, band, s_norm=float(s_sch_f), target=delta)
        problem = NonlinearProblem("nls", n, p, mu=1 if seed % 2 == 0 else -1,
                                   s=float(s_sch_f), data=data)
        if grid is None:
            grid = build_solver_grid(n, band, p, T, _time_grid_for(problem, band, T))
        fld, trace = picard_solve(problem, pairs, T, grid=grid, max_iter=max_iter, tol=tol)
        diag = scattering_state(fld, problem.generator_symbol(), float(s_sch_f))
        sol_norm = trace.iterate_norms[-1]
        runs.append({
            "seed": seed,
            "mu": problem.mu,
            "converged": trace.converged,
            "contraction": trace.contraction_factor,
            "mass_drift": trace.mass_drift,
            "solution_norm": sol_norm,
            "bound_constant": sol_norm / delta,
            "final_deviation": diag.deviation[-2] if len(diag.deviation) > 1 else 0.0,
            "max_tail_deviation": max(diag.deviation[len(diag.deviation) // 2:-1] or (0.0,)),
            "tail_decreasing": diag.tail_decreasing,
        })
    return ExperimentReport(
        "nls", {"n": n, "s_sch": float(s_sch_f), "delta": delta, "p": p, "T": T, "band": band},
        (float(pairs.q), float(pairs.r)), tuple(runs),
        all(r["converged"] for r in runs),
        max(r["contraction"] for r in runs),
        max(r["mass_drift"] for r in runs),
    )


def nlw_small_data_experiment(
    n: int,
    s_w,
    delta: float,
    seeds: Sequence[int],
    T: float = 16.0,
    band: tuple = (0.5, 2.0),
    max_iter: int = 8,
    tol: float = 1e-10,
    theta=None,
) -> ExperimentReport:
    """Small-data semilinear wave runs in the pair norm at regularity s_w."""
    if not (s0(n) + 1e-12 < float(s_w) < 0.5):
        raise OutOfRangeS(f"need s0({n}) < s_w < 1/2, got {s_w}")
    pairs = choose_pairs_nlw(n, s_w, theta=theta)
    p = float(pairs.p)
    runs = []
    grid = None
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d0 = random_band_profile(n, rng, band, s_norm=float(s_w), target=delta / 2.0,
                                 real_valued=True)
        d1 = random_band_profile(n, rng, band, s_norm=float(s_w) - 1.0, target=delta / 2.0,
                                 real_valued=True)
        problem = NonlinearProblem("nlw", n, p, mu=1 if seed % 2 == 0 else -1,
                                   s=float(s_w), data=d0, data_velocity=d1)
        if grid is None:
            grid = build_solver_grid(n, band, p, T, 1.0)
        fld, trace = picard_solve(problem, pairs, T, grid=grid, max_iter=max_iter, tol=tol)
        diag = wave_scattering_state(fld, float(s_w))
        runs.append({
            "seed": seed,
            "mu": problem.mu,
            "converged": trace.converged,
            "contraction": trace.contraction_factor,
            "solution_norm": trace.iterate_norms[-1],
            "final_deviation": diag.deviation[-2] if len(diag.deviation) > 1 else 0.0,
            "tail_decreasing": diag.tail_decreasing,
        })
    return ExperimentReport(
        "nlw", {"n": n, "s_w": float(s_w), "delta": delta, "p": p, "T": T,
                "band": band, "case": pairs.case},
        (float(pairs.q), float(pairs.r) if pairs.r != math.inf else math.inf),
        tuple(runs),
        all(r["converged"] for r in runs),
        max(r["contraction"] for r in runs),
        0.0,
    )


def fnls_experiment(
    n: int,
    sigma: float,
    p: float,
    s: float,
    delta: float,
    seeds: Sequence[int],
    T: float = 16.0,
    band: tuple = (0.5, 2.0),
    max_iter: int = 8,
    tol: float = 1e-10,
    mu: int = -1,
) -> ExperimentReport:
    """Fractional-order runs with the symmetric scheme pairs
    q = p + 2, r = 2n(p+2)/(2(n - sigma) + n p); monitors mass and energy."""
    if not (2.0 * n / (2.0 * n - 1.0) <= sigma < 2.0):
        raise OutOfRangeSigma(f"need 2n/(2n-1) <= sigma < 2, got {sigma}")
    if p < 2.0 * sigma / n - 1e-12:
        raise OutOfRangeSigma(f"critical scheme needs p >= 2 sigma / n, got p={p}")
    q = p + 2.0
    r = 2.0 * n * (p + 2.0) / (2.0 * (n - sigma) + n * p)
    pairs = PairSelection(q, r, q, r, p, 0, "fnls")
    runs = []
    grid = None
    om = sphere_area(n)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        data = random_band_profile(n, rng, band, s_norm=s, target=delta)
        problem = NonlinearProblem("fnls", n, p, mu=mu, s=s, data=data, sigma=sigma)
        if grid is None:
            grid = build_solver_grid(n, band, p, T, _time_grid_for(problem, band, T))
        fld, trace = picard_solve(problem, pairs, T, grid=grid, max_iter=max_iter, tol=tol)
        fgrid, coeff = fld.freq
        # energy: omega [ int s^sigma |u_hat|^2 s^(n-1) ds - mu/(p+2) int |u|^{p+2} r^(n-1) dr ]
        kin, pot = [], []
        phys = grid.to_physical(coeff)
        for i in range(0, grid.t.size, max(grid.t.size // 16, 1)):
            kin.append(float(om * np.sum(
                fgrid.weights * fgrid.nodes ** (sigma + n - 1) * np.abs(coeff[i]) ** 2
            )))
            pot.append(float(om * mu / (p + 2.0) * np.sum(
                grid.wr * grid.r ** (n - 1) * np.abs(phys[i]) ** (p + 2.0)
            )))
        energy = np.asarray(kin) - np.asarray(pot)
        e_drift = float(np.max(np.abs(energy - energy[0])) / max(abs(energy[0]), 1e-300))
        diag = scattering_state(fld, problem.generator_symbol(), s)
        runs.append({
            "seed": seed,
            "converged": trace.converged,
            "contraction": trace.contraction_factor,
            "mass_drift": trace.mass_drift,
            "energy_drift": e_drift,
            "energy_positive": bool(np.all(energy > 0)) if mu == -1 else None,
            "final_deviation": diag.deviation[-2] if len(diag.deviation) > 1 else 0.0,
        })
    return ExperimentReport(
        "fnls", {"n": n, "sigma": sigma, "p": p, "s": s, "delta": delta, "T": T,
                 "band": band, "mu": mu},
        (q, r), tuple(runs),
        all(r["converged"] for r in runs),
        max(r["contraction"] for r in runs),
        max(r["mass_drift"] for r in runs),
    )
