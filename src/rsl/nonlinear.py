"""Picard/Duhamel fixed-point solvers for the radial semilinear problems.

All three schemes iterate  a^(m+1) = linear + retarded(forcing(a^m))  in
frequency space with the one loop `picard_solve`.  Time runs on
Gauss-Lobatto panels (`grids.time_panel_grid`), sized by the generator and
the field: a panel spans at most TIME_PANEL_PHASE_COMPLEX = 6 rad of
(p+1) sup|omega| over the data band for the complex NLS and FNLS fields,
and TIME_PANEL_PHASE_REAL = 4 rad for the real NLW field, whose norm's
time quadrature needs the narrower panels.
The linear group is exact, and the retarded integral integrates the
forcing's collocation polynomial on each panel against the exact
multiplier (propagator.duhamel_coefficients), so the fixed point is the
Lobatto IIIA collocation solution; the nonlinearity is evaluated pointwise
on a physical radius grid reached through a fixed quadrature
synthesis/analysis pair.  Because analysis is the weighted adjoint of
synthesis, the discrete nonlinear mass flux Im <|u|^p u, u> vanishes exactly
and the measured mass drift isolates the time-integration error, which on
small data is below rounding.  Both
transforms are real GEMMs against one kernel matrix K_n(s r): a complex
operand is split into its real and imaginary rows, stacked, weighted,
multiplied by the kernel (or its transpose view) in one product and
recombined (`bessel.real_matmul`), so the kernel is never promoted to a
complex copy and no weighted copy of it exists.

The free group e^{i t omega} on the grid's (t, s) nodes and the panel
weights of the retarded integral are each one table per grid and generator
(`SolverGrid.free_group`, `SolverGrid.duhamel_table`), built on first use:
every seed's solve and scattering pullback on that grid read them.  The
data vanish outside their band, so the linear part is added on the band's
columns only, and the first synthesis contracts those columns alone.  A
solve holds the table, the current field and the current iterate; the linear
part is never stored as a trajectory of its own.

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
from typing import Callable, Optional, Sequence

import numpy as np

from .admissibility import PairSelection, choose_pairs_nls, choose_pairs_nlw, in_nlw_range
from .bessel import kernel_matrix, real_matmul
from .cutoffs import smooth_bump
from .dispersion import DispersionSymbol, fractional_symbol, get_symbol
from .errors import DomainError, NonContraction, OutOfRangeS, OutOfRangeSigma
from .grids import (TIME_PANEL_ORDER, TIME_PANEL_PHASE_COMPLEX, TIME_PANEL_PHASE_REAL,
                    FrequencyGrid, PhysicalGrid, gauss_panel_grid, lobatto_panel_count,
                    lobatto_panels, panel_grid, require_array_limit, time_panel_grid,
                    trapezoid_weights, uniform_grid)
from .propagator import SpaceTimeField, duhamel_coefficients, duhamel_table
from .transform import RadialProfile, radial_norm, spacetime_norm, sphere_area


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
        """The linear group e^{i t omega(s)}; its phi is omega, its sup_phi
        over the data band sizes the time panels and its sup_dphi there is
        the group speed."""
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
    """Fixed quadrature pair between the frequency and radius grids: one
    kernel matrix, with the quadrature weights applied to the operands; and
    the times t, `time_order`-node Gauss-Lobatto panels on [0, T]
    (`grids.lobatto_panels`; other times raise ValueError)."""

    freq: FrequencyGrid
    r: np.ndarray
    t: np.ndarray
    kernel: np.ndarray          # (n_s, n_r): K_n(s r)
    synth_weights: np.ndarray   # (n_s,): ws s^(n-1)
    anal_weights: np.ndarray    # (n_r,): wr r^(n-1), the radial measure
    time_order: int = TIME_PANEL_ORDER
    # the number of time panels and the composite Lobatto weights of the
    # times t (read-only), set once from t
    time_panels: int = field(init=False, repr=False, compare=False)
    time_weights: np.ndarray = field(init=False, repr=False, compare=False)
    # free-group and Duhamel tables by generator, filled by free_group and
    # duhamel_table; a grid made by dataclasses.replace (another t, say)
    # starts with none
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        panels = lobatto_panel_count(self.t, self.time_order)   # other times raise ValueError
        weights = lobatto_panels(self.t[-1], panels, self.time_order)[1]
        weights.flags.writeable = False
        object.__setattr__(self, "time_panels", panels)
        object.__setattr__(self, "time_weights", weights)

    @property
    def synth(self) -> np.ndarray:
        """The synthesis matrix (n_s, n_r), before the weights synth_weights."""
        return self.kernel

    @property
    def anal(self) -> np.ndarray:
        """The analysis matrix (n_r, n_s), before the weights anal_weights:
        the transpose view of the kernel."""
        return self.kernel.T

    @classmethod
    def on(cls, n: int, freq: FrequencyGrid, rgrid: FrequencyGrid, t: np.ndarray) -> "SolverGrid":
        """The pair between the nodes of `freq` and `rgrid` (its weights wr)
        in dimension n at times t: the kernel K_n(s r), the synthesis weights
        ws s^(n-1) and the analysis weights wr r^(n-1); a kernel past
        grids.ARRAY_LIMIT raises QuadratureUnderresolved."""
        s, r = freq.nodes, rgrid.nodes
        require_array_limit((s.size, r.size), 8, "solver kernel")
        return cls(freq, r, t, kernel_matrix(n, s, r), freq.weights * s ** (n - 1),
                   rgrid.weights * r ** (n - 1))

    def free_group(self, omega: np.ndarray) -> np.ndarray:
        """The read-only table e^{i t omega(s)} on t x freq.nodes for the
        generator values omega on the nodes: built on the first call for
        these values and kept with the grid, so the seeds solved on one grid
        and their scattering pullbacks share it."""
        key = ("group", np.asarray(omega, dtype=float).tobytes())
        table = self._tables.get(key)
        if table is None:
            require_array_limit((self.t.size, self.freq.nodes.size), 16, "free-group table")
            table = np.exp(1j * np.outer(self.t, omega))
            table.flags.writeable = False
            self._tables[key] = table
        return table

    def duhamel_table(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The read-only panel weights (E, W) of `propagator.duhamel_table`
        for the generator values omega on the nodes and this grid's panel
        width: built on the first call and kept with the grid, as
        `free_group` keeps its table."""
        key = ("duhamel", np.asarray(omega, dtype=float).tobytes())
        table = self._tables.get(key)
        if table is None:
            table = duhamel_table(omega, self.t[-1] / self.time_panels, self.time_order)
            for part in table:
                part.flags.writeable = False
            self._tables[key] = table
        return table

    def to_physical(self, coeff: np.ndarray) -> np.ndarray:
        return real_matmul(coeff, self.synth, self.synth_weights)

    def to_frequency(self, phys: np.ndarray) -> np.ndarray:
        return real_matmul(phys, self.anal, self.anal_weights)


# build_solver_grid's two reaches past the group-speed front 1.15 T v
R_TAIL = 20.0
FREQ_REACH_MARGIN = 60.0
# its radius panels, a measured exception to grids.PANEL_PHASE: Gauss-Legendre
# nodes per panel and the kernel phase s_hi x (panel width) one panel spans
R_PANEL_ORDER = 20
R_PANEL_PHASE = 12.0


def build_solver_grid(n: int, band: tuple, p: float, T: float,
                      generator: DispersionSymbol, *, real_field: bool) -> SolverGrid:
    """Grids Nyquist-matched to (p+1) times the data band [s_lo, s_hi].

    Radius grid: r_max = 1.15 T v + R_TAIL / s_lo, the group-speed front
    plus the physical tail of the data.  The data envelope's exp(-1/u)
    transitions live on a log scale in s, so that tail is a length in
    units of 1/s_lo and the grid is scale-covariant.  R_TAIL = 20 is the
    smallest tail, in steps of 2.5, that holds the solution norms of the
    bench problems at T = 4 within 1e-8 relative of a grid with tail 90
    (17.5 leaves NLW at 1.1e-8).  The grid resolves oscillation up to
    1.1 (p+1) s_hi with panels of R_PANEL_ORDER = 20 nodes spanning
    R_PANEL_PHASE = 12 radians each: a Gauss rule gains accuracy per node
    as its order rises, and these panels hold the bench problems' solution
    norms within 2.6e-9 (T = 4) and 1.1e-9 (T = 16) of 10-node panels at 2
    radians.  At 16 radians NLS errs by 2.0e-8 at T = 16: |u|^p u is not
    smooth where the field vanishes.

    Frequency grid: up to 1.1 (p+1) s_hi (the recorded truncation band),
    resolving the kernel oscillation out to its own reach
    1.15 T v + FREQ_REACH_MARGIN with `grids.panel_grid`'s 4-radian panels; it
    does not follow the radius grid, so the frequency and time nodes do
    not move with R_TAIL or the radius panels.

    Both directions use composite Gauss-Legendre panels, so the
    analysis/synthesis round trip is accurate to ~1e-10 on band-limited
    data (uniform trapezoid would leave an O(dr^2) boundary term at r = 0).
    The bench NLS grid (n = 2, s = -1/10, T = 4) is 1,230 x 660.

    Time: `grids.time_panel_grid` at the phase rate (p+1) sup|omega| of the
    generator over the data band (the fastest oscillation of |u|^p u), with
    panels of grids.TIME_PANEL_PHASE_REAL = 4 rad for a real field
    (`real_field`, NLW) and TIME_PANEL_PHASE_COMPLEX = 6 rad for a complex
    one (NLS, FNLS); the field type is the problem's, never the symbol's,
    so callers name it.  The bench NLS / FNLS / NLW grids have
    57 / 36 / 57 times at T = 4.  The rule is covariant under the critical
    scaling (T, band) -> (T / lam^a, lam band), a = 2, sigma, 1.  The
    generator's group speed v = sup|omega'| sets both spatial reaches.
    """
    s_lo_d, s_hi_d = band
    s_hi = (p + 1.0) * s_hi_d * 1.1
    s_lo = s_lo_d / 8.0
    front = 1.15 * T * generator.sup_dphi(*band)
    r_max = front + R_TAIL / s_lo_d
    n_pan_r = int(np.ceil(r_max * s_hi / R_PANEL_PHASE)) + 2
    freq = panel_grid(s_lo, s_hi, front + FREQ_REACH_MARGIN, "solver frequency grid")
    t, _ = time_panel_grid(T, (p + 1.0) * generator.sup_phi(*band),
                           TIME_PANEL_PHASE_REAL if real_field else TIME_PANEL_PHASE_COMPLEX,
                           "solver time grid")
    return SolverGrid.on(n, freq, gauss_panel_grid(1e-9, r_max, n_pan_r, R_PANEL_ORDER), t)


# --------------------------------------------------------------------------
# traces and diagnostics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardTrace:
    """A solve's iterate and difference norms and verdicts; `meta` records
    the data band, T, the pair, the grid shape (n_t, n_s, n_r), r_max (the
    outermost radius node), and the time rule's inputs: the panel count,
    the Lobatto nodes per panel and the phase (p+1) sup|omega| T / panels
    one panel spans (on build_solver_grid's grids at most
    grids.TIME_PANEL_PHASE_REAL for NLW, TIME_PANEL_PHASE_COMPLEX for NLS and
    FNLS).  `contraction_factor` is the largest ratio of successive
    differences, the first being ||a1 - a0|| / ||a0|| (the iteration starts
    from the zero trajectory); 0.0 when no iteration ran (mu = 0).
    `mass_drift` is max |m(t) - m(0)| / m(0) over `_drift_rows`.  On small
    data it sits at its rounding floor, a few ulps of the mass (below 3e-15
    on the bench problems at T = 4 and 16), so its digits are noise; larger
    data show the collocation's own drift above it (6.4e-12 at
    delta = 0.3, T = 12)."""

    iterate_norms: tuple
    diff_norms: tuple
    contraction_factor: float
    converged: bool
    mass_drift: float
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolverField(SpaceTimeField):
    """A Picard solution of `problem` with the solver grid it was computed
    on.  `coeff` is its frequency trajectory on that grid's times and
    `solver_grid.freq` nodes; the scattering pullback reads the grid's
    free-group table of the problem's generator."""

    problem: NonlinearProblem = field(kw_only=True, repr=False, compare=False)
    solver_grid: SolverGrid = field(kw_only=True, repr=False, compare=False)
    coeff: np.ndarray = field(kw_only=True, repr=False, compare=False)


@dataclass(frozen=True)
class ScatteringDiagnostic:
    deviation: tuple
    u_plus: RadialProfile

    @property
    def tail_decreasing(self) -> bool:
        d = np.asarray(self.deviation)
        tail = d[len(d) // 2:]
        return bool(np.all(np.diff(tail) <= 1e-12 + 0.05 * np.maximum(tail[:-1], 1e-300)))


# --------------------------------------------------------------------------
# Picard iteration
# --------------------------------------------------------------------------

def _drift_rows(t: np.ndarray) -> slice:
    """The time rows a conservation law is checked on: every (n_t // 16)-th."""
    return slice(None, None, max(t.size // 16, 1))


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
) -> tuple[SolverField, PicardTrace]:
    """Iterate the Duhamel map until the resolution-norm difference of
    successive iterates falls below tol (relative to the first iterate).

    The iterate is the frequency trajectory a(t, s) of a' = i omega a - i G
    with G = mu |u|^p u (Schrodinger kinds, u = a) or G = i mu |u|^p u
    (wave, u = Im(a) / s); the returned field stores a in `coeff`.
    mu = 0 reproduces the linear evolution exactly (bit-for-bit, same code
    path)."""
    wave = problem.kind == "nlw"
    band = (float(problem.data.grid.nodes[0]), float(problem.data.grid.nodes[-1]))
    generator = problem.generator_symbol()
    if grid is None:
        grid = build_solver_grid(problem.n, band, problem.p, T, generator, real_field=wave)
    s = grid.freq.nodes
    omega = generator.phi(s)
    h0 = _wave_initial_state(problem, s) if wave else problem.data.at(s)
    t = grid.t
    group = grid.free_group(omega)
    # the data, and with them the linear part e^{i t omega} h0, vanish
    # outside the columns `cols`
    nz = np.flatnonzero(h0)
    cols = slice(nz[0], nz[-1] + 1) if nz.size else slice(0)

    def linear_cols():
        return group[:, cols] * h0[cols]

    def with_linear(coeff):
        coeff[:, cols] += linear_cols()
        return coeff

    def synthesize(a):
        return grid.to_physical(a.imag / s if wave else a)

    qr = (float(pairs.q), float(pairs.r))
    wt = grid.time_weights
    table = grid.duhamel_table(omega)

    def resolution_norm(phys):
        return spacetime_norm(phys, grid.anal_weights, wt, problem.n, *qr)

    # the first iterate is the linear part: its synthesis contracts `cols` only
    lin = linear_cols()
    phys = real_matmul(lin.imag / s[cols] if wave else lin, grid.synth[cols],
                       grid.synth_weights[cols])
    del lin
    coeff = None          # the iterate, once it is more than the linear part
    iterate_norms = [resolution_norm(phys)]
    diff_norms = []
    gain = 1j * problem.mu if wave else problem.mu
    converged = False
    for it in range(max_iter):
        if problem.mu == 0:
            converged = True
            break
        forcing = gain * grid.to_frequency(np.abs(phys) ** problem.p * phys)
        coeff = None      # release the previous iterate before the next one
        coeff = with_linear(duhamel_coefficients(t, forcing, table))
        del forcing
        phys_new = synthesize(coeff)
        diff = resolution_norm(phys_new - phys)
        diff_norms.append(diff)
        phys = phys_new
        iterate_norms.append(resolution_norm(phys))
        if diff <= tol * max(iterate_norms[0], 1e-300):
            converged = True
            break
        if len(diff_norms) >= 3 and all(
            diff_norms[-i] >= diff_norms[-i - 1] for i in (1, 2)
        ) and diff_norms[-1] > iterate_norms[0]:
            raise NonContraction(f"diff norms non-decreasing: {diff_norms[-3:]}")
    if coeff is None:
        coeff = with_linear(np.zeros((t.size, s.size), dtype=complex))
    # the differences start from ||a0 - 0|| = iterate_norms[0]: the first
    # iterate a0 = Phi(0) is one step from the zero trajectory
    steps = iterate_norms[:1] + diff_norms
    factors = [steps[i + 1] / steps[i] for i in range(len(diff_norms)) if steps[i] > 0]
    contraction = float(np.max(factors)) if factors else 0.0
    drift = 0.0
    if not wave:
        masses = radial_norm(coeff[_drift_rows(t)], grid.synth_weights, problem.n, 2) ** 2
        if masses[0] > 0:
            drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
    trace = PicardTrace(
        tuple(iterate_norms), tuple(diff_norms), contraction, converged, drift,
        {"band": band, "T": T, "pair": qr, "grid_shape": (t.size, s.size, grid.r.size),
         "r_max": float(grid.r[-1]), "time_panels": grid.time_panels,
         "time_panel_order": grid.time_order,
         "time_panel_phase": (problem.p + 1.0) * generator.sup_phi(*band) * T / grid.time_panels},
    )
    fld = SolverField(PhysicalGrid(grid.r, t), phys, problem.n, source="duhamel",
                      problem=problem, solver_grid=grid, coeff=coeff)
    return fld, trace


def _sobolev_rows(fgrid: FrequencyGrid, rows: np.ndarray, n: int, s: float) -> np.ndarray:
    """The homogeneous H^s norm of every row in one weighted reduction,
    sqrt(|S^(n-1)| sum_s w s^(2s+n-1) |row|^2) as in transform.sobolev_norm.
    Raises ValueError on non-finite rows, as a RadialProfile would."""
    if not np.all(np.isfinite(rows)):
        raise ValueError("frequency trajectory must be finite")
    return radial_norm(rows, fgrid.weights * fgrid.nodes ** (2.0 * s + n - 1), n, 2)


def scattering_state(field: SolverField, s: float) -> ScatteringDiagnostic:
    """Pull the stored frequency trajectory back along the free group of
    `field.problem` and report || v(t) - v(T) || on the time grid: in
    H^s-dot, or for NLW, whose a = u_t + i s u is read back in place as the
    pair (u, u_t) = (Im / s, Re), in the product norm H^s-dot x H^(s-1)-dot."""
    fgrid = field.solver_grid.freq
    nodes = fgrid.nodes
    pull = np.conj(field.solver_grid.free_group(field.problem.generator_symbol().phi(nodes)))
    pull *= field.coeff
    if field.problem.kind == "nlw":
        u, u_t = pull.imag, pull.real     # views: (u, u_t) is formed in place
        u /= nodes
        parts = ((u, s), (u_t, s - 1.0))
    else:
        parts = ((pull, s),)
    v_plus = parts[0][0][-1].copy()
    for rows, _ in parts:
        rows -= rows[-1].copy()
    devs = sum(_sobolev_rows(fgrid, rows, field.n, reg) for rows, reg in parts)
    return ScatteringDiagnostic(tuple(devs.tolist()), RadialProfile(fgrid, v_plus, field.n))


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

    def fn(s):
        return scale * raw(s)

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
    max_mass_drift: float   # 0.0 for nlw, which has no mass law
    grid: dict              # the first seed's GRID_META entries of PicardTrace.meta


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


# the PicardTrace.meta entries an experiment reports for its grid
GRID_META = ("grid_shape", "r_max", "time_panels", "time_panel_order", "time_panel_phase")


def _run_seeds(kind: str, params: dict, pairs: PairSelection, seeds: Sequence[int],
               T: float, draw: Callable, row: Callable) -> ExperimentReport:
    """The seed loop of every experiment.  Each seed draws its problem with
    draw(rng, mu) from its own rng and sign (mu = +1 on even seeds, -1 on
    odd), is solved on the first solve's grid, and keeps only its run dict
    row(seed, problem, field, trace): no field or diagnostic outlives it."""
    runs = []
    grid = None
    grid_meta = {}
    for seed in seeds:
        problem = draw(np.random.default_rng(seed), 1 if seed % 2 == 0 else -1)
        fld, trace = picard_solve(problem, pairs, T, grid=grid, max_iter=EXPERIMENT_MAX_ITER)
        grid = fld.solver_grid
        grid_meta = grid_meta or {key: trace.meta[key] for key in GRID_META}
        runs.append(row(seed, problem, fld, trace))
        del fld
    return ExperimentReport(
        kind, params, (float(pairs.q), float(pairs.r)), tuple(runs),
        all(r["converged"] for r in runs),
        max(r["contraction"] for r in runs),
        max(r.get("mass_drift", 0.0) for r in runs),
        grid_meta,
    )


def nls_small_data_experiment(n: int, s_sch, delta: float, seeds: Sequence[int],
                              T: float = 16.0) -> ExperimentReport:
    """Small-data runs of the semilinear Schrodinger fixed point at critical
    regularity s_sch < 0: contraction, the resolution-norm bound, and the
    scattering pullback, per seed."""
    s_sch_f = check_nls_range(n, s_sch)
    pairs = choose_pairs_nls(n, s_sch_f, s_sch_f)
    p = float(pairs.p)

    def draw(rng, mu):
        data = random_band_profile(n, rng, s_norm=float(s_sch_f), target=delta)
        return NonlinearProblem("nls", n, p, mu=mu, data=data)

    def row(seed, problem, fld, trace):
        diag = scattering_state(fld, float(s_sch_f))
        return {
            "seed": seed,
            "mu": problem.mu,
            "converged": trace.converged,
            "contraction": trace.contraction_factor,
            "mass_drift": trace.mass_drift,
            "solution_norm": trace.iterate_norms[-1],
            "bound_constant": trace.iterate_norms[-1] / delta,
            "final_deviation": diag.deviation[-2] if len(diag.deviation) > 1 else 0.0,
            "max_tail_deviation": max(diag.deviation[len(diag.deviation) // 2:-1] or (0.0,)),
            "tail_decreasing": diag.tail_decreasing,
        }

    return _run_seeds(
        "nls", {"n": n, "s_sch": float(s_sch_f), "delta": delta, "p": p, "T": T, "band": DATA_BAND},
        pairs, seeds, T, draw, row)


def nlw_small_data_experiment(n: int, s_w, delta: float, seeds: Sequence[int],
                              T: float = 16.0) -> ExperimentReport:
    """Small-data semilinear wave runs in the pair norm at regularity s_w."""
    check_nlw_range(n, s_w)
    pairs = choose_pairs_nlw(n, s_w)
    p = float(pairs.p)

    def draw(rng, mu):
        d0 = random_band_profile(n, rng, s_norm=float(s_w), target=delta / 2.0,
                                 real_valued=True)
        d1 = random_band_profile(n, rng, s_norm=float(s_w) - 1.0, target=delta / 2.0,
                                 real_valued=True)
        return NonlinearProblem("nlw", n, p, mu=mu, data=d0, data_velocity=d1)

    def row(seed, problem, fld, trace):
        diag = scattering_state(fld, float(s_w))
        return {
            "seed": seed,
            "mu": problem.mu,
            "converged": trace.converged,
            "contraction": trace.contraction_factor,
            "solution_norm": trace.iterate_norms[-1],
            "final_deviation": diag.deviation[-2] if len(diag.deviation) > 1 else 0.0,
            "tail_decreasing": diag.tail_decreasing,
        }

    return _run_seeds(
        "nlw", {"n": n, "s_w": float(s_w), "delta": delta, "p": p, "T": T,
                "band": DATA_BAND, "case": pairs.case},
        pairs, seeds, T, draw, row)


def fnls_experiment(n: int, sigma: float, p: float, s: float, delta: float,
                    seeds: Sequence[int], T: float = 16.0) -> ExperimentReport:
    """Defocusing (mu = -1) fractional-order runs with the symmetric scheme
    pairs q = p + 2, r = 2n(p+2)/(2(n - sigma) + n p); monitors mass and
    energy."""
    check_fnls_range(n, sigma, p)
    q = p + 2.0
    r = 2.0 * n * (p + 2.0) / (2.0 * (n - sigma) + n * p)
    pairs = PairSelection(q, r, q, r, p, 0, "fnls")
    mu = -1

    def draw(rng, _seed_mu):
        data = random_band_profile(n, rng, s_norm=s, target=delta)
        return NonlinearProblem("fnls", n, p, mu=mu, data=data, sigma=sigma)

    def row(seed, problem, fld, trace):
        grid = fld.solver_grid
        rows = _drift_rows(grid.t)
        # the Hamiltonian of i u_t = -D^sigma u + mu |u|^p u (d|u|^(p+2)/d u-bar
        # = (p+2)/2 |u|^p u): ||u||_{H^(sigma/2)-dot}^2 - 2 mu/(p+2) ||u||_{L^(p+2)}^(p+2)
        kin = radial_norm(fld.coeff[rows], grid.freq.weights * grid.freq.nodes ** (sigma + n - 1),
                          n, 2) ** 2
        pot = 2.0 * mu / (p + 2.0) * radial_norm(fld.values[rows], grid.anal_weights,
                                                  n, p + 2.0) ** (p + 2.0)
        energy = kin - pot
        e_drift = float(np.max(np.abs(energy - energy[0])) / max(abs(energy[0]), 1e-300))
        diag = scattering_state(fld, s)
        return {
            "seed": seed,
            "converged": trace.converged,
            "contraction": trace.contraction_factor,
            "mass_drift": trace.mass_drift,
            "energy_drift": e_drift,
            "energy_positive": bool(np.all(energy > 0)),
            "solution_norm": trace.iterate_norms[-1],
            "final_deviation": diag.deviation[-2] if len(diag.deviation) > 1 else 0.0,
        }

    return _run_seeds(
        "fnls", {"n": n, "sigma": sigma, "p": p, "s": s, "delta": delta, "T": T,
                 "band": DATA_BAND, "mu": mu},
        pairs, seeds, T, draw, row)
