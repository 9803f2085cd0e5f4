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
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, SmallArgument


def bessel_j(nu: float, r) -> np.ndarray:
    """J_nu(r) for real order nu >= -1/2 and r >= 0 (scipy backend)."""
    if nu < -0.5:
        raise DomainError(f"order {nu} < -1/2 not supported")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("negative argument")
    return special.jv(nu, r)


def bessel_j_integral(nu: float, r: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral

        J_nu(r) = (r/2)^nu / (Gamma(nu+1/2) sqrt(pi)) *
                  int_{-1}^{1} e^{irt} (1-t^2)^(nu-1/2) dt.

    Used only to cross-check `bessel_j`; never called by the evaluators.
    """
    from scipy import integrate

    if nu <= -0.5:
        raise DomainError("integral representation needs nu > -1/2")
    if r < 0:
        raise DomainError("negative argument")
    pref = (r / 2.0) ** nu / (special.gamma(nu + 0.5) * np.sqrt(np.pi))

    # t = sin(u) removes the endpoint singularity: the even part gives
    # 2 int_0^{pi/2} cos(r sin u) (cos u)^{2 nu} du
    def re(u):
        return np.cos(r * np.sin(u)) * np.cos(u) ** (2.0 * nu)

    val, _ = integrate.quad(re, 0.0, np.pi / 2.0, limit=400, epsabs=1e-12, epsrel=1e-11)
    return float(pref * 2.0 * val)


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
    """Split J_(n-2)/2(r), r >= 1, into main oscillations and residuals.

    The e^{+ir} half of J is exactly H1/2 = (J + iY)/2; subtracting the
    leading coefficient c(r) leaves the residual, reported in the
    normalization whose modulus decays like r^(-(n+1)/2).
    """
    if r < 1.0:
        raise SmallArgument("asymptotic split valid for r >= 1 only")
    nu = (n - 2) / 2.0
    beta = (n - 1) * np.pi / 4.0
    c = np.exp(-1j * beta) / np.sqrt(2.0 * np.pi * r)
    h1 = complex(special.jv(nu, r), special.yv(nu, r))
    plus_coeff = 0.5 * h1 * np.exp(-1j * r)        # e^{+ir} coefficient of J
    resid_plus = plus_coeff - c                     # remainder on the e^{+ir} side
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

KERNEL_BLOCK = 1 << 16   # points per block of a radial_kernel evaluation
KERNEL_PANEL = 1 << 18   # points per panel of a streamed kernel product


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The kernel block workers, one per core this process may run on."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return ThreadPoolExecutor(cores or 1, thread_name_prefix="rsl-kernel")


def radial_kernel(n: int, x, out=None) -> np.ndarray:
    """x^(-(n-2)/2) J_((n-2)/2)(x), the radial Fourier kernel.

    Backends, each with its own small-x series where the closed form loses
    accuracy or divides by zero:
      n = 2   special.j0(x)
      n = 3   sqrt(2/pi) sin(x)/x               (series below 1e-4)
      n = 4   special.j1(x)/x                   (series below 1e-4)
      n = 5   sqrt(2/pi) (sin x - x cos x)/x^3  (series below 0.1, where the
              numerator cancels and the relative error grows like 3 eps/x^2)
      other   x^(-nu) special.jv(nu, x)         (series below 1e-6)
    Checked against 30-digit mpmath for n = 2..6 on x = 0 and [1e-9, 1e4]:
    error <= 1e-12 relative to max(|K_n|, min(1, x^(-(n-1)/2))).

    The points are evaluated in blocks of KERNEL_BLOCK on the kernel
    workers; each block is computed by the same code wherever it runs, so
    the result does not depend on the number of cores.  `out`, a
    C-contiguous float array of x's shape, receives the values and may be
    x itself (evaluation in place).
    """
    x = np.asarray(x, dtype=float)
    if x.size and x.min() < 0:
        raise DomainError("negative argument")
    if out is None:
        out = np.empty(x.shape)
    xs, outs = x.reshape(-1), out.reshape(-1)
    inplace = np.may_share_memory(x, out)

    def block(lo):
        xb = xs[lo:lo + KERNEL_BLOCK]
        _kernel_block(n, xb.copy() if inplace else xb, outs[lo:lo + KERNEL_BLOCK])

    starts = range(0, xs.size, KERNEL_BLOCK)
    if len(starts) > 1:
        list(_pool().map(block, starts))
    elif starts:
        block(0)
    return out[()] if out.ndim == 0 else out


def _kernel_block(n: int, x: np.ndarray, out: np.ndarray) -> None:
    """Write K_n(x) into out (same shape, distinct memory) for one block."""
    series = ()  # Taylor coefficients in x^2 used below x = cut
    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 2:
            special.j0(x, out=out)
        elif n == 3:
            np.sin(x, out=out)
            out /= x
            out *= _SQRT_2_PI
            cut, series = 1e-4, (_SQRT_2_PI, -_SQRT_2_PI / 6.0)
        elif n == 4:
            special.j1(x, out=out)
            out /= x
            cut, series = 1e-4, (0.5, -1.0 / 16.0)
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
            nu = (n - 2) / 2.0
            special.jv(nu, x, out=out)
            out *= x ** (-nu)
            lim = 2.0 ** (-nu) / special.gamma(nu + 1.0)
            cut, series = 1e-6, (lim, -lim / (4.0 * (nu + 1.0)))
    if series:
        small = x < cut
        if small.any():
            xs2 = x[small] ** 2
            val = np.full_like(xs2, series[-1])
            for c in series[-2::-1]:
                val *= xs2
                val += c
            out[small] = val


def kernel_matrix(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix K_n(a_i b_j), evaluated in place over the outer product:
    one array of its size, no temporary beside it."""
    x = np.multiply.outer(a, b)
    return radial_kernel(n, x, out=x)


def kernel_panels(n: int, a: np.ndarray, b: np.ndarray):
    """Yield (rows, kernel_matrix(n, a[rows], b)) over row slices of about
    KERNEL_PANEL points each, so a caller contracts the kernel matrix of
    a x b one panel at a time and never holds all of it."""
    step = max(1, KERNEL_PANEL // max(b.size, 1))
    for lo in range(0, a.size, step):
        rows = slice(lo, lo + step)
        yield rows, kernel_matrix(n, a[rows], b)


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


def hankel_phase_coeffs(n: int) -> np.ndarray:
    """Coefficients b_p with

        H1_nu(x) ~ sqrt(2/(pi x)) e^{i(x - (n-1)pi/4)} * sum_p b_p (x_min/x)^p

    uniformly on x >= x_min = HANKEL_X_MIN = 8 (max abs error 6.7e-13,
    7.6e-13 and 1.1e-12 for n = 2, 4 and 6 at degree HANKEL_DEGREE = 8,
    i.e. 9 terms; exact with 1 or 2 terms for odd n, where H1_(n-2)/2 is
    elementary).  The separable powers (x_min/(rs))^p are what let the
    outer-region field sampler evaluate one chirp-Z transform per power
    instead of a dense kernel matrix.  The fit runs once per n; the returned
    array is shared and read-only.
    """
    return _hankel_phase_coeffs(n)


@functools.lru_cache(maxsize=None)
def _hankel_phase_coeffs(n: int) -> np.ndarray:
    nu = (n - 2) / 2.0
    m = 4000
    w = (np.cos(np.pi * (np.arange(m) + 0.5) / m) + 1.0) / 2.0
    x = HANKEL_X_MIN / w
    zeta = special.hankel1e(nu, x) * np.sqrt(np.pi * x / 2.0) * np.exp(1j * (nu * np.pi / 2 + np.pi / 4))
    cheb = np.polynomial.chebyshev.chebfit(2.0 * w - 1.0, zeta, HANKEL_DEGREE)
    poly_u = np.polynomial.polynomial.Polynomial(np.polynomial.chebyshev.cheb2poly(cheb))
    poly_w = poly_u(np.polynomial.polynomial.Polynomial([-1.0, 2.0]))
    b = poly_w.coef.astype(complex)

    # truncate to the shortest prefix that still evaluates to ~fit accuracy
    # (odd n collapses to its exact finite expansion this way)
    def max_err(coeffs):
        approx = np.zeros_like(w, dtype=complex)
        for c in coeffs[::-1]:
            approx = approx * w + c
        return float(np.max(np.abs(approx - zeta)))

    full_err = max_err(b)
    for p in range(1, b.size):
        if max_err(b[:p]) <= max(2.0 * full_err, 2e-11):
            b = b[:p]
            break
    b.flags.writeable = False
    return b
