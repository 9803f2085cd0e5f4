"""Bessel functions, the radial Fourier kernel, and the large-argument split.

Everything here is dimension-parametrized through the order nu = (n-2)/2.
The large-argument decomposition isolates the two leading oscillations

    J_nu(r) = c(r) e^{ir} + conj(c(r)) e^{-ir} + remainder,
    c(r)    = e^{-i (n-1) pi/4} / sqrt(2 pi r),

with the remainder split into e^{+-ir} components through the Hankel
function H1 = J + iY (which carries the pure e^{+ir} oscillation), so the
reassembly identity is exact to rounding.  The remainder coefficients decay
like r^{-(n+1)/2}, which is what drives every outer-annulus bound downstream.

`hankel_phase_coeffs` fits the phase-extracted H1 in separable powers of
x_min/x on x >= x_min.  This module owns x_min = 8 and the fit degree 8
(HANKEL_X_MIN, HANKEL_DEGREE); the outer-region field sampler imports them.
The fit samples H1 without scipy: Watson's Laplace integral by the
trapezoid rule for integer nu, the terminating Hankel sum for half-integer
nu.  The same samples give the split's remainder on r >= 1.

Kernel matrices K_n(a_i b_j) (`kernel_matrix`, `kernel_panels`) split at
x = x_min the way the sampler splits its radii: `radial_kernel` pointwise
below it, and above it, for n = 2..5 on a composite grid, the expansion's
Re[e^{ix} A] with cos/sin from panel tables by angle addition and the
rank-P amplitude A as one small real product per panel lane.

The kernels of n = 2..5 are in-house (a Taylor polynomial or a closed form
below x_min, the same Hankel amplitude above it), and `bessel_j` is
r^nu K_n(r), so those paths and the split load no scipy module.  Only
`radial_kernel` for n >= 6 imports scipy.special, on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SmallArgument
from .grids import PANEL_ORDER


def bessel_j(nu: float, r) -> np.ndarray:
    """J_nu(r) = r^nu K_n(r) for nu = (n-2)/2 with n >= 2 an integer (other
    orders raise DomainError) and r >= 0."""
    r = np.asarray(r, dtype=float)
    return radial_kernel(2.0 * nu + 2.0, r) * r**nu


@dataclass(frozen=True)
class BoundReport:
    nu: float
    sup_power_ratio: float      # sup |J_nu(r)| / r^nu
    sup_decay_ratio: float      # sup |J_nu(r)| * r^(1/2)
    bound_constant: float
    passed: bool


def bessel_bound_check(nu: float, r_grid, bound_constant: float = 2.0) -> BoundReport:
    """Measure the two textbook envelopes |J_nu| <= C r^nu and |J_nu| <= C r^(-1/2)."""
    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 0):
        raise DomainError("grid must be positive")
    j = bessel_j(nu, r)
    a = float(np.max(np.abs(j) / r**nu))
    b = float(np.max(np.abs(j) * np.sqrt(r)))
    ok = np.isfinite(a) and np.isfinite(b) and a <= bound_constant and b <= bound_constant
    return BoundReport(nu, a, b, bound_constant, bool(ok))


@dataclass(frozen=True)
class BesselSplit:
    """Leading oscillatory coefficients and residuals of J_(n-2)/2 at radius r.

    Reassembly (exact):
        J = main_plus e^{ir} + main_minus e^{-ir}
            + r^((n-2)/2) (e^{-ir} e_plus - e^{ir} e_minus)
    """

    n: int
    r: float
    main_plus: complex
    main_minus: complex
    e_plus: complex
    e_minus: complex

    def reassemble(self) -> float:
        r = self.r
        nu_pow = r ** ((self.n - 2) / 2.0)
        val = (
            self.main_plus * np.exp(1j * r)
            + self.main_minus * np.exp(-1j * r)
            + nu_pow * (np.exp(-1j * r) * self.e_plus - np.exp(1j * r) * self.e_minus)
        )
        return float(np.real(val))


def bessel_asymptotic_split(n: int, r: float) -> BesselSplit:
    """Split J_(n-2)/2(r), r >= 1, n = 2..6, into main oscillations and residuals.

    The e^{+ir} half of J is exactly H1/2 = (J + iY)/2, and (1/2) H1 e^{-ir}
    = c zeta with zeta the Hankel factor of `_hankel_zeta`; subtracting the
    leading coefficient c(r) leaves the residual c (zeta - 1), reported in
    the normalization whose modulus decays like r^(-(n+1)/2).  Other n raise
    DomainError: zeta is checked against 30-digit mpmath on r >= 1 for
    n = 2..6 only.
    """
    if n not in (2, 3, 4, 5, 6):
        raise DomainError(f"asymptotic split implemented for n = 2..6, not {n}")
    if r < 1.0:
        raise SmallArgument("asymptotic split valid for r >= 1 only")
    c = np.exp(-1j * (n - 1) * np.pi / 4.0) / np.sqrt(2.0 * np.pi * r)
    resid_plus = c * (_hankel_zeta(n, np.array([float(r)]))[0] - 1.0)  # e^{+ir} remainder
    resid_minus = np.conj(resid_plus)               # J real => conjugate pair
    nu_pow = r ** ((n - 2) / 2.0)
    return BesselSplit(
        n=n,
        r=r,
        main_plus=complex(c),
        main_minus=complex(np.conj(c)),
        e_plus=complex(resid_minus / nu_pow),
        e_minus=complex(-resid_plus / nu_pow),
    )


_SQRT_2_PI = np.sqrt(2.0 / np.pi)

# Taylor coefficients in x^2 of (sin x - x cos x)/x^3 = sum_k c_k x^(2k);
# truncated after four terms, relative error < 1e-14 below the n = 5 cut 0.1.
_N5_SERIES = (1.0 / 3.0, -1.0 / 30.0, 1.0 / 840.0, -1.0 / 45360.0)

# J0(x) and J1(x)/x on [0, x_min) as polynomials in v = x^2/32 - 1, which
# maps [0, 8) onto [-1, 1): with y = x^2/4 = 8 (1 + v) the Taylor series
# sum_k (-1)^k y^k / (k! k!) (J0) and sum_k (-1)^k y^k / (2 k! (k+1)!)
# (J1/x) give m_j = sum_(k >= j) C(k, j) times the k-th term's coefficient
# times 8^k, summed exactly in rationals up to k = 60 and rounded once.  The
# omitted m_j (from j = 20 and 19) are below 2e-19, and sum |m_j| = 4.2 and
# 0.78 bound the rounding of the Horner pass (1e-15 and 3.3e-16 measured).
_J0_TAYLOR = (
    0.04582966485981377, 0.9303012472958572, -0.6484692830871837, -0.808088807669687,
    1.0383794611437211, -0.507468045847102, 0.14598884856759273, -0.028472718610869578,
    0.0040580789891404906, -0.0004435459224727048, 3.8473197857390745e-05,
    -2.717749145067604e-06, 1.5956108859131898e-07, -7.915407670571153e-09,
    3.363471845932588e-10, -1.238469912242617e-11, 3.99082607499242e-13,
    -1.1351303457340372e-14, 2.8714326528572485e-16, -6.502895596058119e-18,
)
_J1X_TAYLOR = (
    -0.05814382795599107, 0.08105866038589796, 0.15151665143806634, -0.2595948652859303,
    0.15858376432721938, -0.054745818212847276, 0.01245681439225544, -0.0020290394945702453,
    0.0002494945813908964, -2.4045748660869218e-05, 1.8684525372339779e-06,
    -1.1967081644348923e-07, 6.431268732339062e-09, -2.9430378651910144e-10,
    1.1610655427274535e-11, -3.99082607499242e-13, 1.2060759923424145e-14,
    -3.2303617344644047e-16, 7.722188520319016e-18,
)

KERNEL_PANEL = 1 << 18   # points per panel of a streamed kernel product
# points per pass of radial_kernel, whose temporaries then stay in cache:
# n = 2 on 2^20 points in [0, 60] takes 50 ns a point at 2^13 and 2^14, 59 at
# 2^12 and 84 at 2^16 (best of 7, 2-core Xeon VM, numpy 2.4)
KERNEL_CHUNK = 1 << 13


def radial_kernel(n: int, x, out=None) -> np.ndarray:
    """x^(-(n-2)/2) J_((n-2)/2)(x), the radial Fourier kernel, for n >= 2 an
    integer (DomainError otherwise).

    Backends:
      n = 2, 4  J0(x) and J1(x)/x: below HANKEL_X_MIN the Taylor polynomial
                in v = x^2/32 - 1 (_J0_TAYLOR, _J1X_TAYLOR; within 1e-15 of
                the exact values), at and above it Re[e^{ix} A(x)] with the
                kernel matrices' Hankel amplitude (KERNEL_HANKEL_DEGREE)
      n = 3     sqrt(2/pi) sin(x)/x               (series below 1e-4)
      n = 5     sqrt(2/pi) (sin x - x cos x)/x^3  (series below 0.1, where
                the numerator cancels and the relative error grows like
                3 eps/x^2)
      n >= 6    x^(-nu) scipy.special.jv(nu, x)   (series below 1e-6)
    Checked against 30-digit mpmath for n = 2..6 on x = 0 and [1e-9, 1e4]:
    error <= 1e-12 relative to max(|K_n|, min(1, x^(-(n-1)/2))).

    The points are evaluated on the calling thread in chunks of
    KERNEL_CHUNK; every point's value is the same whatever chunk holds it.
    `out`, a C-contiguous float64 array of x's shape (ValueError
    otherwise), receives the values and may be x itself (evaluation in
    place).
    """
    if not (float(n).is_integer() and n >= 2):
        raise DomainError(f"dimension {n} is not an integer >= 2")
    n = int(n)
    x = np.asarray(x, dtype=float)
    if x.size and x.min() < 0:
        raise DomainError("negative argument")
    if out is None:
        out = np.empty(x.shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == x.shape and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array of x's shape")
    xs, outs = x.reshape(-1), out.reshape(-1)
    inplace = np.may_share_memory(x, out)
    for lo in range(0, xs.size, KERNEL_CHUNK):
        xc = xs[lo:lo + KERNEL_CHUNK]
        _kernel_chunk(n, xc.copy() if inplace else xc, outs[lo:lo + KERNEL_CHUNK])
    return out[()] if out.ndim == 0 else out


def _kernel_chunk(n: int, x: np.ndarray, out: np.ndarray) -> None:
    """Write K_n(x) into out (same shape, distinct memory) for one chunk."""
    if n in (2, 4):
        _even_kernel(n, x, out)
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 3:
            np.sin(x, out=out)
            out /= x
            out *= _SQRT_2_PI
            cut, series = 1e-4, (_SQRT_2_PI, -_SQRT_2_PI / 6.0)
        elif n == 5:
            np.sin(x, out=out)
            tmp = np.cos(x)
            tmp *= x
            out -= tmp
            np.multiply(x, x, out=tmp)
            tmp *= x
            out /= tmp
            out *= _SQRT_2_PI
            cut, series = 0.1, tuple(_SQRT_2_PI * c for c in _N5_SERIES)
        else:
            from scipy import special

            nu = (n - 2) / 2.0
            special.jv(nu, x, out=out)
            out *= x ** (-nu)
            lim = 2.0 ** (-nu) / special.gamma(nu + 1.0)
            cut, series = 1e-6, (lim, -lim / (4.0 * (nu + 1.0)))
    # Taylor coefficients in x^2 below x = cut
    small = x < cut
    if small.any():
        xs2 = x[small] ** 2
        val = np.full_like(xs2, series[-1])
        for c in series[-2::-1]:
            val *= xs2
            val += c
        out[small] = val


def _even_kernel(n: int, x: np.ndarray, out: np.ndarray) -> None:
    """K_2 = J0 or K_4 = J1(x)/x into out: the Taylor polynomial below
    HANKEL_X_MIN, the Hankel amplitude at and above it."""
    taylor = _J0_TAYLOR if n == 2 else _J1X_TAYLOR
    if x.max() < HANKEL_X_MIN:
        _taylor(taylor, x, out)
        return
    big = x >= HANKEL_X_MIN
    far, near = np.flatnonzero(big), np.flatnonzero(~big)
    xn, xf = x.take(near), x.take(far)
    out[near] = _taylor(taylor, xn, xn)
    out[far] = _hankel_kernel(n, xf, xf)


def _taylor(m, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_j m_j v^j with v = x^2/32 - 1, by Horner; out may be x."""
    v = x * x
    v *= 1.0 / 32.0
    v -= 1.0
    out.fill(m[-1])
    for c in m[-2::-1]:
        out *= v
        out += c
    return out


@functools.cache
def _hankel_kernel_coeffs(n: int) -> np.ndarray:
    """(2, P): the real and imaginary parts of sqrt(2/pi) e^{-i(n-1)pi/4} b_p,
    b_p the KERNEL_HANKEL_DEGREE fit, highest power first."""
    b = _hankel_phase_coeffs(n, KERNEL_HANKEL_DEGREE)
    c = _SQRT_2_PI * np.exp(-1j * (n - 1) * np.pi / 4.0) * b[::-1]
    return np.stack((c.real, c.imag))


def _hankel_kernel(n: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """K_n(x) = x^(-(n-1)/2) Re[e^{ix} sum_p c_p (x_min/x)^p] for x >= x_min
    and even n, with c_p from `_hankel_kernel_coeffs`; out may be x."""
    c = _hankel_kernel_coeffs(n)
    w = HANKEL_X_MIN / x
    re, im = np.full(x.size, c[0, 0]), np.full(x.size, c[1, 0])
    for p in range(1, c.shape[1]):
        re *= w
        re += c[0, p]
        im *= w
        im += c[1, p]
    root = np.sqrt(x)
    if n == 4:
        root *= x
    # both read before out (which may be x) is written
    re *= np.cos(x)
    im *= np.sin(x)
    np.subtract(re, im, out=out)
    out /= root
    return out


def kernel_matrix(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix K_n(a_i b_j) of two node arrays a, b >= 0, split at
    x = a_i b_j = HANKEL_X_MIN like the field sampler's radii:

      x <  x_min  radial_kernel, pointwise;
      x >= x_min  Re[e^{ix} A(a_i, b_j)] with A the rank-P Hankel amplitude
                  (the fit of `hankel_phase_coeffs` at KERNEL_HANKEL_DEGREE),
                  for n = 2..5 when a or b is a composite grid (`_table_plan`).

    Other n and arguments without panel structure take the pointwise path
    for every entry, evaluated in place over the outer product (one array
    of the matrix's size, no temporary beside it).  Beside the matrix the
    table path holds one tile's complex amplitude (at most 2 KERNEL_TILE
    floats, 1 MiB), which then also takes the tile's products x and, a
    KERNEL_CHUNK of them at a time, those below x_min; one column block's
    tables (PANEL_ORDER P complex numbers a column, 0.45 MB at P = 11 and
    TABLE_COLS columns); and P floats a grid node (the powers sigma).  It
    agrees with radial_kernel on the same products within 1e-12 of
    max(|K_n|, min(1, x^(-(n-1)/2))) (2.6e-13 measured up to x = 830): the
    fit error (at most 4.5e-14) plus a phase error of a few ulps of x, the
    rounding of x that radial_kernel's cos and sin of x carry too.  It runs
    on the calling thread."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _kernel_rows(n, a, b, _table_plan(n, a, b), 0, a.size)


def kernel_panels(n: int, a: np.ndarray, b: np.ndarray):
    """Yield (rows, kernel_matrix(n, a[rows], b)) over row slices of about
    KERNEL_PANEL points each, so a caller contracts the kernel matrix of
    a x b one panel at a time and never holds all of it.  On the table path
    the slices are whole tiles of the plan of the whole arrays (multiples
    of PANEL_ORDER rows), so every entry equals the one
    kernel_matrix(n, a, b) holds."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    plan = _table_plan(n, a, b, keep_tables=True)
    quantum = 1 if plan is None else plan.quantum
    step = max(1, KERNEL_PANEL // max(b.size, 1) // quantum) * quantum
    for lo in range(0, a.size, step):
        hi = min(lo + step, a.size)
        yield slice(lo, hi), _kernel_rows(n, a, b, plan, lo, hi)


KERNEL_TILE = 1 << 16     # points per table tile of a kernel matrix
TABLE_COLS = 256          # most nodes of the other argument per table tile
# multiply-adds per amplitude product: below OpenBLAS's threading threshold
# (2^18), so each product runs on the calling thread without waking a worker
TABLE_MACS = 1 << 17


def _panels(x: np.ndarray):
    """(panel starts, in-panel offsets) of a composite grid, or None: x holds
    at least two blocks of PANEL_ORDER nodes (the last may be shorter) that
    are translates of the first block to 4 ulps of max |x|."""
    L = PANEL_ORDER
    if x.ndim != 1 or x.size < 2 * L or not np.isfinite(x).all():
        return None
    starts, offsets = x[::L], x[:L] - x[0]
    full = x.size - x.size % L
    dev = np.abs(x[:full].reshape(-1, L) - starts[:full // L, None] - offsets).max()
    if full < x.size:
        dev = max(dev, np.abs(x[full:] - x[full] - offsets[:x.size - full]).max())
    return (starts, offsets) if dev <= 4 * np.spacing(np.abs(x).max()) else None


def _table_plan(n: int, a: np.ndarray, b: np.ndarray, keep_tables: bool = False):
    """The table factorization of K_n(a_i b_j) above x_min, or None.

    Along a composite grid S (nodes S_kl = P_k + D_l of panel k, lane l) and
    the other argument o, the Hankel expansion gives for x = S_kl o >= x_min

        K_n(S_kl o) = Re[ e^{i P_k o} sum_p sigma_p(S_kl) W_lp(o) ],
        sigma_p(s) = s^(-(n-1)/2 - p),
        W_lp(o)    = sqrt(2/pi) e^{-i beta} b_p x_min^p o^(-(n-1)/2 - p) e^{i D_l o},

    so cos/sin are needed only on the panel starts (one call per
    PANEL_ORDER entries) and the amplitude is one real product per lane.
    S is a if a is composite and at least a quarter as long as b (the
    matrix is then written along its rows), else b; n outside 2..5, a
    negative node, an empty argument, a matrix with no x >= x_min and
    arguments with no panel structure get None.
    With keep_tables a plan along a keeps the W and phase tables of b
    (PANEL_ORDER (P + 1) complex numbers per node of b) for the row slices
    of `kernel_panels`, which all share them."""
    if n not in (2, 3, 4, 5) or a.ndim != 1 or b.ndim != 1 or not a.size * b.size:
        return None
    if min(a.min(), b.min()) < 0 or a.max() * b.max() < HANKEL_X_MIN:
        return None
    pa, pb = _panels(a), _panels(b)
    if pa is not None and (pb is None or 4 * a.size >= b.size):
        return _TablePlan(n, 0, a, *pa, b, keep_tables)
    if pb is not None:
        return _TablePlan(n, 1, b, *pb, a, False)
    return None


class _TablePlan:
    """The factorization of `_table_plan` along the composite grid `nodes`
    (axis 0: the rows argument a, axis 1: the columns argument b).  When the
    panel starts are a composite grid too, e^{i P_k o} comes by angle
    addition from their own starts and offsets.

    The matrix is cut into tiles of `tile_nodes` grid nodes by `cols` nodes
    of the other argument, counted from the first node of each, so the
    tiles are fixed by the two arrays; `quantum` is the matrix rows of one
    tile (axis 0) or one column block (axis 1), and row panels made of
    whole quanta evaluate every entry exactly as the whole matrix does."""

    def __init__(self, n, axis, nodes, starts, offsets, other, keep_tables):
        self.n, self.axis, self.nodes = n, axis, nodes
        self.tables = {} if keep_tables else None   # column block -> (W, f)
        self.starts, self.offsets = starts, offsets
        self.outer = _panels(starts)
        # n = 3 has one term; a zero second one keeps the amplitude product
        # off the rank-1 matmul path, several times slower than rank 2 here
        fit = _hankel_phase_coeffs(n, KERNEL_HANKEL_DEGREE)
        b = np.zeros(max(fit.size, 2), dtype=complex)
        b[:fit.size] = fit
        p = np.arange(b.size)
        self.power = -(n - 1) / 2.0 - p
        self.gamma = _SQRT_2_PI * np.exp(-1j * (n - 1) * np.pi / 4.0) * b * HANKEL_X_MIN ** p
        # nodes whose every product stays below x_min keep sigma = 0 (they
        # are evaluated pointwise), which also keeps s = 0 out of the powers
        self.sigma = np.zeros((nodes.size, b.size))
        keep = nodes * other.max() >= HANKEL_X_MIN
        self.sigma[keep] = nodes[keep, None] ** self.power
        # a tile's amplitude product, (panels x P) @ (P x 2 cols) per lane,
        # stays within TABLE_MACS; a row panel of `kernel_panels` (quantum
        # rows by b.size) stays within KERNEL_PANEL where one tile allows
        L, b_size = PANEL_ORDER, (other if axis == 0 else nodes).size
        if axis == 0:
            self.cols = min(TABLE_COLS, other.size)
            panel_cap = KERNEL_PANEL // (L * b_size)
        else:
            self.cols = L * max(1, min(TABLE_COLS, KERNEL_PANEL // b_size) // L)
            panel_cap = KERNEL_TILE
        self.tile_nodes = L * max(1, min(TABLE_MACS // (2 * b.size * self.cols),
                                         KERNEL_TILE // (L * self.cols), panel_cap))
        self.quantum = self.tile_nodes if axis == 0 else self.cols

    def fill(self, s_lo: int, s_hi: int, o: np.ndarray, target: np.ndarray) -> None:
        """target[i, j] = K_n(nodes[s_lo + i] o[j]) tile by tile, for s_lo a
        multiple of tile_nodes and o starting at a multiple of cols of the
        other argument; one buffer serves every tile."""
        L, x_min = PANEL_ORDER, HANKEL_X_MIN
        s_max = self.nodes.max()
        tile_max = min(self.tile_nodes, s_hi - s_lo) * min(self.cols, o.size)
        # a tile's complex amplitude; once the tile's table values are
        # written, its products x and their entries below x_min
        amp = np.empty(2 * tile_max)
        # tile rows per gather of those entries: about one KERNEL_CHUNK
        rows = max(1, KERNEL_CHUNK // min(self.cols, o.size))
        for j0 in range(0, o.size, self.cols):
            oc = o[j0:j0 + self.cols]
            w = f = None   # release the previous block's tables first
            w, f = self._column_tables(j0, oc, oc * s_max >= x_min)
            for p0 in range(s_lo, s_hi, self.tile_nodes):
                p1 = min(p0 + self.tile_nodes, s_hi)
                s = self.nodes[p0:p1]
                tile = target[p0 - s_lo:p1 - s_lo, j0:j0 + oc.size]
                if s.max() * oc.max() < x_min:
                    x = np.multiply.outer(s, oc, out=amp[:tile.size].reshape(tile.shape))
                    tile[...] = radial_kernel(self.n, x, out=x)
                    continue
                full = (p1 - p0) // L * L
                if full:
                    self._table(p0, L, oc, w, f, tile[:full], amp)
                if full < p1 - p0:
                    self._table(p0 + full, p1 - p0 - full, oc, w, f, tile[full:], amp)
                if s.min() * oc.min() < x_min:
                    x = np.multiply.outer(s, oc, out=amp[:tile.size].reshape(tile.shape))
                    for r0 in range(0, x.shape[0], rows):
                        xr, tr = x[r0:r0 + rows], tile[r0:r0 + rows]
                        small = xr < x_min
                        xs = xr[small]
                        tr[small] = radial_kernel(self.n, xs, out=xs)

    def _column_tables(self, j0: int, o: np.ndarray, keep: np.ndarray):
        """(W, f) for the column block o from column j0: W (PANEL_ORDER, P,
        2 o.size) holds W_lp(o) as interleaved real and imaginary parts, 0
        where every product with the grid stays below x_min; f is e^{i D'_r o}
        on the offsets D' of the panel starts' own panels, or None."""
        if self.tables is not None and j0 in self.tables:
            return self.tables[j0]
        o = np.where(keep, o, 1.0)
        amp = np.empty((self.gamma.size, o.size))
        amp[0] = o ** self.power[0]
        for p in range(1, amp.shape[0]):
            np.divide(amp[p - 1], o, out=amp[p])
        amp = amp * self.gamma[:, None]
        amp[:, ~keep] = 0.0
        w = np.multiply(np.exp(1j * np.multiply.outer(self.offsets, o))[:, None, :], amp)
        f = None if self.outer is None else np.exp(1j * np.multiply.outer(self.outer[1], o))
        if self.tables is not None:
            self.tables[j0] = w.view(float), f
        return w.view(float), f

    def _table(self, p0, lanes, o, w, f, tile, amp) -> None:
        """The table values of the whole panels of `lanes` nodes from node p0
        into tile (their rows by o.size), with (w, f) from `_column_tables`
        and the buffer amp for the amplitude."""
        L = PANEL_ORDER
        m, c = tile.shape[0] // lanes, o.size
        k0 = p0 // L
        if f is None:
            e = np.exp(1j * np.multiply.outer(self.starts[k0:k0 + m], o))
        else:
            q0 = k0 // L
            e = np.exp(1j * np.multiply.outer(self.outer[0][q0:(k0 + m - 1) // L + 1], o))
            k = np.arange(k0, k0 + m)
            e = e[k // L - q0] * f[k % L]
        sig = self.sigma[p0:p0 + m * lanes].reshape(m, lanes, -1).transpose(1, 0, 2)
        g = np.matmul(sig, w[:lanes], out=amp[:2 * tile.size].reshape(lanes, m, 2 * c))
        g = g.view(complex)                              # (lanes, m, c)
        g *= e
        np.copyto(np.reshape(tile, (m, lanes, c), copy=False).transpose(1, 0, 2), g.real)


def _kernel_rows(n: int, a: np.ndarray, b: np.ndarray, plan, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of K_n(a_i b_j) under `plan` (None: pointwise in place)."""
    if plan is None:
        x = np.multiply.outer(a[lo:hi], b)
        return radial_kernel(n, x, out=x)
    out = np.empty((hi - lo, b.size))
    if plan.axis == 0:
        plan.fill(lo, hi, b, out)
    else:
        plan.fill(0, b.size, a[lo:hi], out.T)
    return out


def real_rows(x: np.ndarray, weights=None) -> np.ndarray:
    """The real operand (2 m, k) of a complex x of shape (m, k) or (k,): the
    rows of x.real times weights, then the rows of x.imag times weights.  A
    caller that contracts one operand against many matrices splits it once."""
    rows = np.stack((x.real, x.imag))
    if weights is not None:
        rows *= weights
    return rows.reshape(-1, x.shape[-1])


def complex_rows(prod: np.ndarray) -> np.ndarray:
    """The complex (m, c) array whose real rows are the first m rows of the
    real product prod (2 m, c) and whose imaginary rows are the last m."""
    m = prod.shape[0] // 2
    out = np.empty((m, prod.shape[1]), dtype=complex)
    out.real = prod[:m]
    out.imag = prod[m:]
    return out


def real_matmul(x: np.ndarray, m: np.ndarray, weights=None) -> np.ndarray:
    """(x * weights) @ m, or x @ m without weights, for a real matrix m in
    real arithmetic.  A complex x sends its real and imaginary rows through
    one real GEMM (no complex copy of m, two real products per entry instead
    of four); a real x stays real."""
    if not np.iscomplexobj(x):
        return (x if weights is None else x * weights) @ m
    return complex_rows(real_rows(x, weights) @ m).reshape(*x.shape[:-1], m.shape[-1])


HANKEL_X_MIN = 8.0
HANKEL_DEGREE = 8
# the kernel matrices' fit: 11 terms for even n at max errors 9.8e-15,
# 1.1e-14 and 1.4e-14 (n = 2, 4, 6), so their table path stays at the
# rounding of radial_kernel (degree 8 moved criterion 8's complex-Gaussian
# error from 5.00e-13 to 5.12e-13)
KERNEL_HANKEL_DEGREE = 10


def hankel_phase_coeffs(n: int) -> np.ndarray:
    """Coefficients b_p with

        H1_nu(x) ~ sqrt(2/(pi x)) e^{i(x - (n-1)pi/4)} * sum_p b_p (x_min/x)^p

    uniformly on x >= x_min = HANKEL_X_MIN = 8 (max abs error 6.7e-13,
    7.6e-13 and 1.1e-12 for n = 2, 4 and 6 at degree HANKEL_DEGREE = 8,
    i.e. 9 terms; exact with 1 or 2 terms for odd n, where H1_(n-2)/2 is
    elementary).  The separable powers (x_min/(rs))^p are what let the
    outer-region field sampler evaluate one chirp-Z transform per power
    instead of a dense kernel matrix.  One fit serves this degree and the
    kernel matrices' KERNEL_HANKEL_DEGREE, made once per (n, degree) on
    first use; the returned array is shared and read-only.
    """
    return _hankel_phase_coeffs(n, HANKEL_DEGREE)


# Chebyshev nodes of the fit: zeta's Chebyshev coefficients reach rounding
# (1e-16) by degree 14, so 128 nodes alias nothing into a degree <= 10 fit,
# and the even-n max errors match a 4,000-node least-squares fit's
_HANKEL_FIT_NODES = 128


# the trapezoid rule of `_hankel_zeta` on v = 0, 0.16, ..., 6.4: its
# integrand is analytic in the strip |Im v| < sqrt(x) (>= 1 on x >= 1, the
# split's range), which puts the rule's error near rounding at this step, and
# e^(-v^2) v^4 < 1e-15 beyond the last node
_LAPLACE_STEP = 0.16
_LAPLACE_NODES = 41


def _hankel_zeta(n: int, x: np.ndarray) -> np.ndarray:
    """zeta(x) = H1_nu(x) sqrt(pi x/2) e^{-i(x - nu pi/2 - pi/4)}, nu = (n-2)/2,
    at x >= 1, without a Bessel library (within 6e-16 of 30-digit mpmath at
    the fit nodes on x >= HANKEL_X_MIN and 1.1e-14 on [1, 1000] for
    n = 2..6, the worst at n = 6, x = 1).

    Half-integer nu: Hankel's expansion terminates, zeta = sum_k a_k (i/x)^k
    over k <= nu - 1/2, a_k = a_(k-1) (4 nu^2 - (2k-1)^2) / (8k).  Integer nu:
    Watson's Laplace integral with u = v^2,

        zeta = Gamma(nu + 1/2)^-1 int_R e^(-v^2) v^(2 nu) (1 + i v^2/(2x))^(nu - 1/2) dv,

    by the trapezoid rule, whose even integrand needs only v >= 0."""
    if n % 2:
        zeta = np.ones(x.shape, dtype=complex)
        term = np.ones(x.shape, dtype=complex)
        for k in range(1, (n - 1) // 2):
            term *= ((n - 2) ** 2 - (2 * k - 1) ** 2) / (8.0 * k) * 1j / x
            zeta += term
        return zeta
    v = _LAPLACE_STEP * np.arange(_LAPLACE_NODES)
    weight = np.full(v.size, 2.0 * _LAPLACE_STEP)
    weight[0] = _LAPLACE_STEP
    weight *= np.exp(-v * v) * v ** (n - 2) / math.gamma((n - 1) / 2.0)
    root = np.sqrt(1.0 + 1j * np.multiply.outer(0.5 / x, v * v))
    return (root ** (n - 3) * weight).sum(axis=1)


def _shifted_chebyshev(degree: int) -> np.ndarray:
    """The exact integer matrix whose row k holds the monomial coefficients
    of T_k(2w - 1), by T_(k+1) = 2 (2w - 1) T_k - T_(k-1)."""
    t = np.zeros((degree + 1, degree + 1), dtype=np.int64)
    t[0, 0] = 1
    t[1, :2] = (-1, 2)
    for k in range(1, degree):
        t[k + 1] = -2 * t[k] - t[k - 1]
        t[k + 1, 1:] += 4 * t[k, :-1]
    return t


@functools.lru_cache(maxsize=None)
def _hankel_phase_coeffs(n: int, degree: int) -> np.ndarray:
    m = _HANKEL_FIT_NODES
    odd = 2 * np.arange(m) + 1
    w = (np.cos(np.pi / (2 * m) * odd) + 1.0) / 2.0
    zeta = _hankel_zeta(n, HANKEL_X_MIN / w)
    # the discrete Chebyshev projection in u = 2w - 1: T_k(u_j) = cos(k theta_j)
    # are orthogonal on these nodes, so it is the least-squares fit with no
    # linear solve.  k theta_j = pi k (2j + 1) / (2m) is reduced exactly mod
    # 2 pi, which keeps odd n's zero coefficients at rounding (their 1- or
    # 2-term prefix then errs by 2.6e-14 at most, not 4.5e-14).  Both sums
    # are elementwise: a complex BLAS product would page in about 0.1 MB of
    # BLAS code that the Picard grids never otherwise run
    k = np.arange(degree + 1)
    cheb = (np.cos(np.pi / (2 * m) * (np.outer(k, odd) % (4 * m))) * zeta).sum(axis=1) * (2.0 / m)
    cheb[0] /= 2.0
    b = (cheb[:, None] * _shifted_chebyshev(degree)).sum(axis=0)  # monomials in w = x_min/x

    # truncate to the shortest prefix that still evaluates to ~fit accuracy
    # (odd n collapses to its exact finite expansion this way); row p of the
    # cumulative sum is the prefix of p + 1 terms at every node
    prefix = np.cumsum(b[:, None] * w ** k[:, None], axis=0)
    err = np.abs(prefix - zeta).max(axis=1)
    b = b[:int(np.argmax(err <= max(2.0 * err[-1], 2e-11))) + 1]
    b.flags.writeable = False
    return b
