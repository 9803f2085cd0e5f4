"""Picard/Duhamel fixed-point solvers for the radial semilinear problems.

All three schemes iterate  a^(m+1) = linear + retarded(forcing(a^m))  in
frequency space with the one loop `picard_solve`.  The linear group and the
per-step retarded integrals use the exact multiplier
(propagator.duhamel_coefficients); the nonlinearity is evaluated pointwise
on a physical radius grid reached through a fixed quadrature
synthesis/analysis pair.  Because analysis is the weighted adjoint of
synthesis, the discrete nonlinear mass flux Im <|u|^p u, u> vanishes exactly
and the measured mass drift isolates the time-integration error.  Both
transforms are real GEMMs: a complex operand is split into its real and
imaginary rows, stacked, multiplied by the real folded kernel in one product
and recombined, so the kernel is never promoted to a complex copy.

Generator multipliers (NonlinearProblem.generator_symbol, group e^{i t omega}):

    semilinear Schrodinger   omega(s) = -s^2
    fractional Schrodinger   omega(s) = +s^sigma
    semilinear wave          omega(s) = +s

The wave equation u_tt + s^2 u = mu F is first order in the complex unknown
a = u_t + i s u of real data:  a' = i s a + mu F,  so it is the Schrodinger
form with forcing i mu F; the field is u = Im(a) / s.

Negative-regularity data are synthesized band-limited with a prescribed
homogeneous Sobolev norm; the truncation band is recorded in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .admissibility import PairSelection, choose_pairs_nls, choose_pairs_nlw, in_nlw_range
from .bessel import radial_kernel
from .cutoffs import smooth_bump
from .dispersion import DispersionSymbol, fractional_symbol, get_symbol
from .errors import DomainError, NonContraction, OutOfRangeS, OutOfRangeSigma
from .grids import FrequencyGrid, PhysicalGrid, gauss_panel_grid, trapezoid_weights, uniform_grid
from .propagator import SpaceTimeField, duhamel_coefficients
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
    data: RadialProfile           # u0_hat
    data_velocity: Optional[RadialProfile] = None  # u1_hat (nlw)
    sigma: Optional[float] = None

    def generator_symbol(self) -> DispersionSymbol:
        """The linear group e^{i t omega(s)}; its phi is omega and its
        sup_dphi over the data band is the group speed."""
        if self.kind == "nls":
            return DispersionSymbol(
                "nls-generator",
                phi=lambda s: -np.asarray(s, dtype=float) ** 2,
                dphi=lambda s: -2.0 * np.asarray(s, dtype=float),
                d2phi=lambda s: -2.0 * np.ones_like(np.asarray(s, dtype=float)),
                m1=2.0, m2=2.0, alpha1=2.0, alpha2=2.0,
            )
        if self.kind == "fnls":
            return fractional_symbol(self.sigma)
        return get_symbol("wave")


@dataclass(frozen=True)
class SolverGrid:
    """Fixed quadrature pair between the frequency and radius grids."""

    freq: FrequencyGrid
    r: np.ndarray
    wr: np.ndarray
    t: np.ndarray
    synth: np.ndarray    # (n_s, n_r): ws s^(n-1) K_n(s r) folded
    anal: np.ndarray     # (n_r, n_s): wr r^(n-1) K_n(s r) folded

    def to_physical(self, coeff: np.ndarray) -> np.ndarray:
        return _real_matmul(coeff, self.synth)

    def to_frequency(self, phys: np.ndarray) -> np.ndarray:
        return _real_matmul(phys, self.anal)


def _real_matmul(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m for a real matrix m in real arithmetic.  A complex x sends its
    real and imaginary rows through one real GEMM (no complex copy of m, two
    real products per entry instead of four); a real x stays real."""
    if not np.iscomplexobj(x):
        return x @ m
    rows = np.stack((x.real, x.imag)).reshape(-1, x.shape[-1])
    prod = (rows @ m).reshape(2, *x.shape[:-1], m.shape[-1])
    out = np.empty(prod.shape[1:], dtype=complex)
    out.real = prod[0]
    out.imag = prod[1]
    return out


def build_solver_grid(
    n: int,
    band: tuple,
    p: float,
    T: float,
    group_speed: float,
    r_margin: float = 60.0,
) -> SolverGrid:
    """Grids Nyquist-matched to (p+1) times the data band.

    The radius grid resolves oscillation up to 1.1 (p+1) s_max; the
    frequency grid extends to 1.1 (p+1) s_max (recorded truncation band) and
    resolves the kernel oscillation at the largest radius, at a phase of 4
    radians per panel.  Both directions use composite Gauss-Legendre panels,
    so the analysis/synthesis round trip is accurate to ~1e-10 on
    band-limited data (uniform trapezoid would leave an O(dr^2) boundary
    term at r = 0).
    """
    s_lo_d, s_hi_d = band
    s_hi = (p + 1.0) * s_hi_d * 1.1
    s_lo = s_lo_d / 8.0
    r_max = 1.15 * T * group_speed + r_margin
    n_pan_s = int(np.ceil((s_hi - s_lo) * r_max / 4.0)) + 2
    n_pan_r = int(np.ceil(r_max * s_hi / 4.0)) + 2
    freq = gauss_panel_grid(s_lo, s_hi, n_pan_s)
    rgrid = gauss_panel_grid(1e-9, r_max, n_pan_r)
    r, wr = rgrid.nodes, rgrid.weights
    s = freq.nodes
    kern = radial_kernel(n, np.outer(s, r))
    synth = kern * (freq.weights * s ** (n - 1))[:, None]
    kern *= (wr * r ** (n - 1))[None, :]   # in place: no third kernel-sized array
    anal = kern.T
    nt = int(np.ceil(T * (p + 1.0) * max(abs(s_hi_d) ** 2, 1.0) * 8.0 / np.pi)) + 1
    t = np.linspace(0.0, T, max(nt, 65))
    return SolverGrid(freq, r, wr, t, synth, anal)


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
# Picard iteration
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


def _wave_initial_state(problem: NonlinearProblem, s: np.ndarray) -> np.ndarray:
    """a0 = h1 + i s h0 from real data (u0_hat, u1_hat)."""
    h0 = problem.data.at(s)
    h1 = problem.data_velocity.at(s) if problem.data_velocity is not None else np.zeros_like(h0)
    if np.any(h0.imag != 0) or np.any(h1.imag != 0):
        raise DomainError("nlw data and velocity must be real")
    return h1.real + 1j * s * h0.real


def picard_solve(
    problem: NonlinearProblem,
    pairs: PairSelection,
    T: float,
    grid: Optional[SolverGrid] = None,
    max_iter: int = 10,
    tol: float = 1e-10,
) -> tuple[SpaceTimeField, PicardTrace]:
    """Iterate the Duhamel map until the resolution-norm difference of
    successive iterates falls below tol (relative to the first iterate).

    The iterate is the frequency trajectory a(t, s) of a' = i omega a - i G
    with G = mu |u|^p u (Schrodinger kinds, u = a) or G = i mu |u|^p u
    (wave, u = Im(a) / s); the returned field stores a in `freq`.
    mu = 0 reproduces the linear evolution exactly (bit-for-bit, same code
    path)."""
    wave = problem.kind == "nlw"
    band = (float(problem.data.grid.nodes[0]), float(problem.data.grid.nodes[-1]))
    generator = problem.generator_symbol()
    if grid is None:
        grid = build_solver_grid(problem.n, band, problem.p, T, generator.sup_dphi(*band))
    s = grid.freq.nodes
    omega = generator.phi(s)
    h0 = _wave_initial_state(problem, s) if wave else problem.data.at(s)
    t = grid.t
    linear = np.exp(1j * np.outer(t, omega)) * h0[None, :]

    def synthesize(a):
        return grid.to_physical(a.imag / s) if wave else grid.to_physical(a)

    qr = (float(pairs.q), float(pairs.r))
    coeff = linear
    phys = synthesize(coeff)
    iterate_norms = [_resolution_norm(grid, phys, problem.n, *qr)]
    diff_norms = []
    gain = 1j * problem.mu if wave else problem.mu
    converged = False
    for it in range(max_iter):
        if problem.mu == 0:
            converged = True
            break
        forcing = grid.to_frequency(np.abs(phys) ** problem.p * phys)
        coeff_new = linear + duhamel_coefficients(omega, t, gain * forcing)
        phys_new = synthesize(coeff_new)
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
    drift = 0.0
    if not wave:
        masses = [_mass(grid.freq, coeff[i], problem.n)
                  for i in range(0, t.size, max(t.size // 16, 1))]
        if masses[0] > 0:
            drift = float(np.max(np.abs(np.asarray(masses) - masses[0])) / masses[0])
    trace = PicardTrace(
        tuple(iterate_norms), tuple(diff_norms), contraction, converged, drift,
        {"band": band, "T": T, "pair": qr},
    )
    fld = SpaceTimeField(PhysicalGrid(grid.r, t), phys, problem.n, source="duhamel",
                         freq=(grid.freq, coeff))
    return fld, trace


def _sobolev_rows(fgrid: FrequencyGrid, rows: np.ndarray, n: int, s: float) -> np.ndarray:
    """The homogeneous H^s norm of every row in one weighted reduction,
    sqrt(|S^(n-1)| sum_s w s^(2s+n-1) |row|^2) as in norms.sobolev_norm.
    Raises ValueError on non-finite rows, as a RadialProfile would."""
    if not np.all(np.isfinite(rows)):
        raise ValueError("frequency trajectory must be finite")
    weight = fgrid.weights * fgrid.nodes ** (2.0 * s + n - 1)
    return np.sqrt(sphere_area(n) * (np.abs(rows) ** 2 @ weight))


def scattering_state(field: SpaceTimeField, symbol: DispersionSymbol, s: float) -> ScatteringDiagnostic:
    """Pull the stored frequency trajectory back along the free group and
    report || v(t) - v(T) ||_{H^s-dot} on the time grid."""
    if field.freq is None:
        raise ValueError("field carries no frequency trajectory")
    fgrid, coeff = field.freq
    t = field.grid.t_nodes
    omega = symbol.phi(fgrid.nodes)
    pullback = np.exp(-1j * np.outer(t, omega)) * coeff
    devs = _sobolev_rows(fgrid, pullback - pullback[-1], field.n, s)
    u_plus = RadialProfile(fgrid, pullback[-1], field.n)
    return ScatteringDiagnostic(tuple(t), tuple(devs.tolist()), u_plus)


def wave_scattering_state(field: SpaceTimeField, s_w: float) -> ScatteringDiagnostic:
    """Free-group pullback of a = u_t + i s u, read back as the pair
    (u, u_t) = (Im / s, Re); deviation in the product norm
    H^{s_w}-dot x H^{s_w - 1}-dot."""
    fgrid, coeff = field.freq
    t = field.grid.t_nodes
    s = fgrid.nodes
    pull = np.exp(-1j * np.outer(t, s)) * coeff
    u, u_t = pull.imag / s, pull.real
    devs = (_sobolev_rows(fgrid, u - u[-1], field.n, s_w)
            + _sobolev_rows(fgrid, u_t - u_t[-1], field.n, s_w - 1.0))
    return ScatteringDiagnostic(tuple(t), tuple(devs.tolist()),
                                RadialProfile(fgrid, u[-1], field.n))


# --------------------------------------------------------------------------
# data synthesis and experiments
# --------------------------------------------------------------------------

# every experiment draws its data on this band and stops Picard after
# EXPERIMENT_MAX_ITER iterations (at picard_solve's default tolerance)
DATA_BAND = (0.5, 2.0)
EXPERIMENT_MAX_ITER = 8


def random_band_profile(
    n: int,
    rng: np.random.Generator,
    s_norm: float = 0.0,
    target: float = 1.0,
    real_valued: bool = False,
) -> RadialProfile:
    """Random radial datum on DATA_BAND with prescribed H^{s_norm}-dot norm.

    Ten Chebyshev coefficients in the logarithmic band coordinate keep the
    datum C-infinity, so its physical profile decays faster than any power
    and the solver's truncated analysis quadrature stays accurate."""
    lo, hi = DATA_BAND
    ctrl = rng.standard_normal(10) + 1j * rng.standard_normal(10)
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


def check_nls_range(n: int, s_sch) -> Fraction:
    """s_sch as an exact rational; raises OutOfRangeS unless
    (1-n)/(2n+1) <= s_sch < 0, the range of the Schrodinger theorem."""
    s_sch_f = s_sch if isinstance(s_sch, Fraction) else Fraction(s_sch).limit_denominator(10**9)
    if not (Fraction(1 - n, 2 * n + 1) <= s_sch_f < 0):
        raise OutOfRangeS(f"need (1-n)/(2n+1) <= s_sch < 0, got {s_sch}")
    return s_sch_f


def check_nlw_range(n: int, s_w) -> None:
    """Raises OutOfRangeS unless s0(n) < s_w < 1/2, the range of the wave
    theorem (admissibility.in_nlw_range)."""
    if not in_nlw_range(n, s_w):
        raise OutOfRangeS(f"need s0({n}) < s_w < 1/2, got {s_w}")


def check_fnls_range(n: int, sigma: float, p: float) -> None:
    """Raises OutOfRangeSigma unless 2n/(2n-1) <= sigma < 2 and p is at least
    the mass-critical power 2 sigma / n."""
    if not (2.0 * n / (2.0 * n - 1.0) <= sigma < 2.0):
        raise OutOfRangeSigma(f"need 2n/(2n-1) <= sigma < 2, got {sigma}")
    if p < 2.0 * sigma / n - 1e-12:
        raise OutOfRangeSigma(f"critical scheme needs p >= 2 sigma / n, got p={p}")


def nls_small_data_experiment(
    n: int,
    s_sch,
    delta: float,
    seeds: Sequence[int],
    T: float = 16.0,
) -> ExperimentReport:
    """Small-data runs of the semilinear Schrodinger fixed point at critical
    regularity s_sch < 0: contraction, the resolution-norm bound, and the
    scattering pullback, per seed."""
    s_sch_f = check_nls_range(n, s_sch)
    pairs = choose_pairs_nls(n, s_sch_f, s_sch_f)
    p = float(pairs.p)
    runs = []
    grid = None
    for seed in seeds:
        rng = np.random.default_rng(seed)
        data = random_band_profile(n, rng, s_norm=float(s_sch_f), target=delta)
        problem = NonlinearProblem("nls", n, p, mu=1 if seed % 2 == 0 else -1, data=data)
        if grid is None:
            speed = problem.generator_symbol().sup_dphi(*DATA_BAND)
            grid = build_solver_grid(n, DATA_BAND, p, T, speed)
        fld, trace = picard_solve(problem, pairs, T, grid=grid, max_iter=EXPERIMENT_MAX_ITER)
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
        "nls", {"n": n, "s_sch": float(s_sch_f), "delta": delta, "p": p, "T": T, "band": DATA_BAND},
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
) -> ExperimentReport:
    """Small-data semilinear wave runs in the pair norm at regularity s_w."""
    check_nlw_range(n, s_w)
    pairs = choose_pairs_nlw(n, s_w)
    p = float(pairs.p)
    runs = []
    grid = None
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d0 = random_band_profile(n, rng, s_norm=float(s_w), target=delta / 2.0,
                                 real_valued=True)
        d1 = random_band_profile(n, rng, s_norm=float(s_w) - 1.0, target=delta / 2.0,
                                 real_valued=True)
        problem = NonlinearProblem("nlw", n, p, mu=1 if seed % 2 == 0 else -1,
                                   data=d0, data_velocity=d1)
        if grid is None:
            speed = problem.generator_symbol().sup_dphi(*DATA_BAND)
            grid = build_solver_grid(n, DATA_BAND, p, T, speed)
        fld, trace = picard_solve(problem, pairs, T, grid=grid, max_iter=EXPERIMENT_MAX_ITER)
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
                "band": DATA_BAND, "case": pairs.case},
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
) -> ExperimentReport:
    """Defocusing (mu = -1) fractional-order runs with the symmetric scheme
    pairs q = p + 2, r = 2n(p+2)/(2(n - sigma) + n p); monitors mass and
    energy."""
    check_fnls_range(n, sigma, p)
    q = p + 2.0
    r = 2.0 * n * (p + 2.0) / (2.0 * (n - sigma) + n * p)
    pairs = PairSelection(q, r, q, r, p, 0, "fnls")
    runs = []
    grid = None
    om = sphere_area(n)
    mu = -1
    for seed in seeds:
        rng = np.random.default_rng(seed)
        data = random_band_profile(n, rng, s_norm=s, target=delta)
        problem = NonlinearProblem("fnls", n, p, mu=mu, data=data, sigma=sigma)
        if grid is None:
            speed = problem.generator_symbol().sup_dphi(*DATA_BAND)
            grid = build_solver_grid(n, DATA_BAND, p, T, speed)
        fld, trace = picard_solve(problem, pairs, T, grid=grid, max_iter=EXPERIMENT_MAX_ITER)
        fgrid, coeff = fld.freq
        # energy: omega [ int s^sigma |u_hat|^2 s^(n-1) ds - mu/(p+2) int |u|^{p+2} r^(n-1) dr ]
        kin, pot = [], []
        phys = fld.values
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
            "energy_positive": bool(np.all(energy > 0)),
            "final_deviation": diag.deviation[-2] if len(diag.deviation) > 1 else 0.0,
        })
    return ExperimentReport(
        "fnls", {"n": n, "sigma": sigma, "p": p, "s": s, "delta": delta, "T": T,
                 "band": DATA_BAND, "mu": mu},
        (q, r), tuple(runs),
        all(r["converged"] for r in runs),
        max(r["contraction"] for r in runs),
        max(r["mass_drift"] for r in runs),
    )
