import warnings
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from rsl import bessel
from rsl.bessel import (
    HANKEL_X_MIN,
    KERNEL_CHUNK,
    ODD_TABLE_X_MIN,
    bessel_asymptotic_split,
    bessel_bound_check,
    bessel_j,
    hankel_phase_coeffs,
    kernel_apply,
    kernel_matrix,
    kernel_panels,
    radial_kernel,
)
from rsl.dispersion import get_symbol
from rsl.errors import DomainError, SmallArgument
from rsl.grids import PANEL_ORDER, gauss_panel_grid
from rsl.nonlinear import build_solver_grid

from oracles import bessel_j_integral


def test_bessel_j_basics():
    assert bessel_j(0, 0.0) == pytest.approx(1.0)
    # J_{1/2}(r) = sqrt(2/(pi r)) sin r vanishes at pi
    assert bessel_j(0.5, np.pi) == pytest.approx(0.0, abs=1e-15)
    assert bessel_j(0.5, 2.0) == pytest.approx(np.sqrt(2 / (np.pi * 2.0)) * np.sin(2.0), rel=1e-14)
    with pytest.raises(DomainError):
        bessel_j(0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(-0.75, 1.0)
    # orders other than (n-2)/2 for an integer n >= 2
    with pytest.raises(DomainError):
        bessel_j(0.3, 1.0)


def test_bessel_j_against_integral_oracle_frozen():
    # values computed from the defining-integral oracle (frozen)
    assert bessel_j(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-12)
    assert bessel_j(0, 10.0) == pytest.approx(-0.2459357644513483, abs=1e-12)
    assert bessel_j(1.5, 7.3) == pytest.approx(-0.12095301097363045, abs=1e-12)


def test_bessel_j_against_integral_oracle_sweep():
    # nu = (n-2)/2 for n in 2..5 on a log grid: agreement to 1e-8 scale
    r = np.exp(np.linspace(np.log(1e-2), np.log(1e2), 100))
    for n in (2, 3, 4, 5):
        nu = (n - 2) / 2.0
        vals = bessel_j(nu, r)
        oracle = np.array([bessel_j_integral(nu, x) for x in r])
        scale = np.maximum(np.abs(oracle), r ** (-0.5))
        assert np.max(np.abs(vals - oracle) / scale) < 1e-8


def test_bound_check():
    r = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 400))
    rep = bessel_bound_check(0.0, r, bound_constant=1.1)
    assert rep.passed
    assert rep.sup_power_ratio <= 1.1
    assert rep.sup_decay_ratio <= 1.1
    # J_{1/2} r^{1/2} = sqrt(2/pi) |sin r| <= sqrt(2/pi)
    rep2 = bessel_bound_check(0.5, np.array([np.pi, 2 * np.pi, 3 * np.pi, 1.1, 7.6]))
    assert rep2.sup_decay_ratio <= np.sqrt(2 / np.pi) + 1e-12
    # J_0(r)/r^0 -> 1 as r -> 0+
    rep3 = bessel_bound_check(0.0, np.array([1e-6, 1e-5, 1e-4]))
    assert rep3.sup_power_ratio == pytest.approx(1.0, abs=1e-8)


def test_split_reassembly_exact():
    for n in (2, 3, 4, 5):
        for r in (1.0, 3.7, 10.0, 250.0):
            sp = bessel_asymptotic_split(n, r)
            assert sp.reassemble() == pytest.approx(bessel_j((n - 2) / 2.0, r), abs=1e-13)


def test_split_requires_large_argument():
    with pytest.raises(SmallArgument):
        bessel_asymptotic_split(3, 0.5)


def test_split_rejects_dimensions_beyond_six():
    with pytest.raises(DomainError):
        bessel_asymptotic_split(8, 2.0)


def test_split_remainder_decay():
    # |E_pm(r)| r^{(n+1)/2} stays bounded on [1, 1000], stable under refinement
    for n in (2, 4, 5):
        r1 = np.exp(np.linspace(0, np.log(1e3), 200))
        r2 = np.exp(np.linspace(0, np.log(1e3), 400))

        def max_scaled(rr):
            vals = [abs(bessel_asymptotic_split(n, float(x)).e_plus) * x ** ((n + 1) / 2.0)
                    for x in rr]
            return max(vals)

        m1, m2 = max_scaled(r1), max_scaled(r2)
        assert np.isfinite(m1)
        assert abs(m1 - m2) <= 0.01 * m2
    # n = 3: the half-integer kernel's split is exact, remainder vanishes
    for r in (1.0, 5.0, 40.0):
        sp = bessel_asymptotic_split(3, r)
        assert abs(sp.e_plus) < 1e-14


def test_split_halfinteger_closed_form():
    # n = 3, r = 10: main terms reproduce sqrt(2/(pi r)) sin(r)
    sp = bessel_asymptotic_split(3, 10.0)
    main = sp.main_plus * np.exp(1j * 10.0) + sp.main_minus * np.exp(-1j * 10.0)
    assert complex(main).real == pytest.approx(np.sqrt(2 / (np.pi * 10.0)) * np.sin(10.0), rel=1e-12)
    assert abs(complex(main).imag) < 1e-15


def test_radial_kernel_values():
    assert radial_kernel(2, 0.0) == pytest.approx(1.0)
    assert radial_kernel(4, 0.0) == pytest.approx(0.5)   # series limit of J_1(x)/x
    assert radial_kernel(3, np.pi) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        radial_kernel(2, -0.5)
    for n in (0, 1, 2.5):   # dimensions that are not integers >= 2
        with pytest.raises(DomainError):
            radial_kernel(n, np.array([0.0, 1.0]))


def test_radial_kernel_continuity_at_zero():
    for n in (2, 3, 4, 5):
        assert radial_kernel(n, 1e-8) == pytest.approx(radial_kernel(n, 0.0), rel=1e-6)


def _hankel_fit_errors(degree):
    # (n, max error against scipy on [x_min, 1e4], term count) of the one
    # Hankel fit at the given degree, for n = 2..6
    from scipy import special

    x = np.geomspace(HANKEL_X_MIN, 1e4, 2000)
    for n in (2, 3, 4, 5, 6):
        nu = (n - 2) / 2.0
        zeta = special.hankel1e(nu, x) * np.sqrt(np.pi * x / 2.0) * np.exp(
            1j * (nu * np.pi / 2 + np.pi / 4)
        )
        b = bessel._hankel_phase_coeffs(n, degree)
        approx = np.zeros_like(x, dtype=complex)
        for c in b[::-1]:
            approx = approx * (HANKEL_X_MIN / x) + c  # Horner in x_min/x
        yield n, np.max(np.abs(approx - zeta)), b.size


def test_hankel_phase_coeffs_accuracy():
    # the sampler's degree-8 fit: max error 1.1e-12 at n = 6; even n keeps
    # every term, odd n takes the 1 or 2 exact terms of its finite expansion
    for n, err, size in _hankel_fit_errors(bessel.HANKEL_DEGREE):
        assert err < 1.2e-12, n
        assert size == (bessel.HANKEL_DEGREE + 1 if n % 2 == 0 else (n - 1) // 2), n
    assert hankel_phase_coeffs(2) is bessel._hankel_phase_coeffs(2, bessel.HANKEL_DEGREE)


def test_kernel_matrix_fit_accuracy():
    # the kernel matrices' degree-10 fit (a discrete Chebyshev projection):
    # 11 terms for even n (max error 1.5e-14), the 1 or 2 exact coefficients
    # of the terminating expansion for odd n (4.8e-16 against scipy)
    for n, err, size in _hankel_fit_errors(bessel.KERNEL_HANKEL_DEGREE):
        assert err < (2e-14 if n % 2 == 0 else 1e-15), n
        assert size == (11 if n % 2 == 0 else (n - 1) // 2), n


def test_hankel_phase_coeffs_solve_no_linear_system(monkeypatch):
    # the fit is a projection on Chebyshev nodes, with no least-squares or
    # linear solve (whose first LAPACK use raises a process's peak memory)
    bessel._hankel_kernel_coeffs.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("the Hankel fit called a linear solver")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    # nor an eigensolver (a Gauss-Hermite rule for the Laplace integral
    # would take its nodes from one)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    bessel._hankel_phase_coeffs.cache_clear()
    for n in (2, 3, 4, 5, 6):
        for degree in (bessel.HANKEL_DEGREE, bessel.KERNEL_HANKEL_DEGREE):
            assert bessel._hankel_phase_coeffs(n, degree).size >= 1
    for n in (2, 4):
        assert np.isfinite(radial_kernel(n, np.array([HANKEL_X_MIN, 50.0]))).all()


def _mp_zeta(n, x):
    # zeta = H1_nu(x) sqrt(pi x/2) e^{-i(x - nu pi/2 - pi/4)} in 30-digit mpmath
    import mpmath

    with mpmath.workdps(30):
        nu = mpmath.mpf(n - 2) / 2
        return np.array([
            complex(mpmath.hankel1(nu, xm) * mpmath.sqrt(mpmath.pi * xm / 2)
                    * mpmath.expj(nu * mpmath.pi / 2 + mpmath.pi / 4 - xm))
            for xm in map(mpmath.mpf, x)
        ])


def test_hankel_zeta_at_fit_nodes_against_mpmath():
    # the fit's samples: the trapezoid Laplace integral (even n) and the
    # terminating Hankel sum (odd n) on the 128 Chebyshev nodes, and the
    # split's samples on [1, x_min)
    m = bessel._HANKEL_FIT_NODES
    x = HANKEL_X_MIN / ((np.cos(np.pi / (2 * m) * (2 * np.arange(m) + 1)) + 1.0) / 2.0)
    near = np.concatenate([np.linspace(1.0, HANKEL_X_MIN, 40, endpoint=False),
                           [np.nextafter(HANKEL_X_MIN, 0.0)]])
    for n in (2, 3, 4, 5, 6):
        err = np.abs(bessel._hankel_zeta(n, x) - _mp_zeta(n, x))
        assert np.max(err) <= 2e-15, (n, float(x[np.argmax(err)]))
        err = np.abs(bessel._hankel_zeta(n, near) - _mp_zeta(n, near))
        assert np.max(err) <= 2e-14, (n, float(near[np.argmax(err)]))


def _taylor_in_v(term, terms):
    # m_j = sum_(k >= j) C(k, j) 8^k term(k), exact to k = 60, rounded once:
    # the coefficients in v = x^2/32 - 1 of sum_k term(k) (x^2/4)^k
    return tuple(float(sum(comb(k, j) * 8**k * term(k) for k in range(j, 61)))
                 for j in range(terms))


def test_even_kernel_taylor_constants_rederive_bitwise():
    j0 = _taylor_in_v(lambda k: Fraction((-1) ** k, factorial(k) ** 2), 20)
    j1x = _taylor_in_v(lambda k: Fraction((-1) ** k, 2 * factorial(k) * factorial(k + 1)), 19)
    assert j0 == bessel._J0_TAYLOR
    assert j1x == bessel._J1X_TAYLOR


def test_even_kernels_below_x_min_against_mpmath():
    # K_2 = J0 and K_4 = J1(x)/x from the Taylor polynomials, absolute error
    import mpmath

    x = np.concatenate([[0.0], np.geomspace(1e-9, HANKEL_X_MIN, 300, endpoint=False),
                        np.linspace(0.0, HANKEL_X_MIN, 300, endpoint=False)[1:],
                        [np.nextafter(HANKEL_X_MIN, 0.0)]])
    with mpmath.workdps(30):
        ref = {2: [mpmath.besselj(0, mpmath.mpf(xi)) for xi in x],
               4: [mpmath.besselj(1, mpmath.mpf(xi)) / xi if xi else mpmath.mpf(1) / 2
                   for xi in x]}
    for n in (2, 4):
        err = np.abs(radial_kernel(n, x) - np.array(ref[n], dtype=float))
        assert np.max(err) <= 2e-15, (n, float(x[np.argmax(err)]))


def test_radial_kernel_against_mpmath():
    # 30-digit reference for every backend of radial_kernel (n = 2..6),
    # at x = 0, on both sides of each series threshold, of x_min and of
    # 2^19 pi, and on a log grid
    import mpmath

    cuts = np.array([1e-6, 1e-4, 0.1, HANKEL_X_MIN, 2.0 ** 19 * np.pi])
    x = np.concatenate([[0.0], cuts * (1 - 1e-9), cuts * (1 + 1e-9),
                        np.geomspace(1e-9, 1e4, 400), [1e7, 3.3e8]])
    for n in (2, 3, 4, 5, 6):
        with mpmath.workdps(30):
            nu = mpmath.mpf(n - 2) / 2
            ref = np.array([
                float(2 ** -nu / mpmath.gamma(nu + 1)) if xi == 0.0
                else float(mpmath.mpf(xi) ** -nu * mpmath.besselj(nu, mpmath.mpf(xi)))
                for xi in x
            ])
        with np.errstate(divide="ignore"):
            envelope = np.minimum(1.0, x ** (-(n - 1) / 2.0))
        scaled = np.abs(radial_kernel(n, x) - ref) / np.maximum(np.abs(ref), envelope)
        assert np.max(scaled) <= 1e-12, (n, float(x[np.argmax(scaled)]))


def test_hankel_phase_coeffs_against_mpmath():
    # rebuilds zeta from b_p and checks it against 30-digit mpmath between
    # the fit nodes
    x = np.geomspace(HANKEL_X_MIN, 1e4, 300)
    for n in (2, 3, 4, 5, 6):
        ref = _mp_zeta(n, x)
        approx = np.zeros_like(x, dtype=complex)
        for c in hankel_phase_coeffs(n)[::-1]:
            approx = approx * (HANKEL_X_MIN / x) + c   # Horner in x_min/x
        err = np.abs(approx - ref)
        assert np.max(err) <= 1e-10, (n, float(x[np.argmax(err)]))


@pytest.mark.parametrize("split", [1, 2, 4])
def test_blocked_radial_kernel_is_bitwise_one_block(monkeypatch, split):
    # chunked evaluation, with chunks of KERNEL_CHUNK / split points, against
    # one evaluation of the whole array; at split 1 chunk edges fall 3 nodes
    # into the linspace (7e-5, inside the n = 3 and 5 series ranges), near
    # its end, and on both sides of x_min, and smaller chunks add edges
    monkeypatch.setattr(bessel, "KERNEL_CHUNK", KERNEL_CHUNK // split)
    rng = np.random.default_rng(3)
    x = np.concatenate([
        np.geomspace(1e-9, 0.2, KERNEL_CHUNK - 3),
        np.linspace(0.0, 0.2, KERNEL_CHUNK + 11),
        np.geomspace(1e-9, 1e4, 2 * KERNEL_CHUNK),
        rng.uniform(0.0, 60.0, KERNEL_CHUNK // 3),
    ])
    for n in (2, 3, 4, 5, 6):
        one = np.empty_like(x)
        bessel._kernel_chunk(n, x, one)
        assert np.array_equal(radial_kernel(n, x), one), n
        inplace = x[None, :].copy()
        radial_kernel(n, inplace, out=inplace)
        assert np.array_equal(inplace[0], one), n
    # a kernel matrix on the table path, below the split that kernel_matrix
    # takes (x_min for even n, whose pointwise tiles hold more than a chunk
    # of points, and ODD_TABLE_X_MIN for odd n): each entry there is the one
    # radial_kernel gives on the whole outer product
    a, b = _gauss(1e-9, 40.0, 60), _gauss(0.25, 4.0, 50)
    x = np.multiply.outer(a, b)
    for n, split in ((2, HANKEL_X_MIN), (3, ODD_TABLE_X_MIN), (4, HANKEL_X_MIN),
                     (5, ODD_TABLE_X_MIN)):
        small = x < split
        assert bessel._table_plan(n, a, b) is not None
        assert np.array_equal(kernel_matrix(n, a, b)[small], radial_kernel(n, x)[small]), n


def test_radial_kernel_rejects_bad_out():
    # a non-contiguous out would get the values in a reshaped copy and stay untouched
    x = np.linspace(0.0, 20.0, 12).reshape(3, 4)
    for out in (np.full((4, 3), np.nan).T, np.empty(12), np.empty((3, 4), dtype=np.float32)):
        with pytest.raises(ValueError):
            radial_kernel(2, x, out=out)


def _gauss(lo, hi, panels, order=PANEL_ORDER):
    return gauss_panel_grid(lo, hi, panels, order).nodes


def _scaled_error(n, a, b):
    """max |kernel_matrix - radial_kernel| on the outer product a x b,
    relative to max(|K_n|, min(1, x^(-(n-1)/2)))."""
    x = np.multiply.outer(a, b)
    ref = radial_kernel(n, x)
    with np.errstate(divide="ignore"):
        envelope = np.minimum(1.0, x ** (-(n - 1) / 2.0))
    return np.max(np.abs(kernel_matrix(n, a, b) - ref) / np.maximum(np.abs(ref), envelope))


KERNEL_GRIDS = {
    # the bench picard NLS kernel (frequency x radius) at T = 4 on a 10-node
    # radius grid of margin 60 past the group-speed front, and on its own
    # radius grid of 20-node panels (not a PANEL_ORDER composite)
    "gauss x gauss": (_gauss(0.0625, 6.2, 123), _gauss(1e-9, 78.4, 124)),
    "bench picard": (_gauss(0.0625, 6.2, 123), _gauss(1e-9, 58.4, 33, order=20)),
    "uniform x gauss": (np.linspace(0.0, 60.0, 1201), _gauss(0.25, 4.5, 80)),
    "gauss x uniform": (_gauss(0.25, 4.5, 80), np.linspace(0.0, 60.0, 1201)),
    # partial last panels on both sides
    "odd sizes": (_gauss(0.25, 4.5, 80)[:797], np.linspace(1e-3, 60.0, 1201)[:1133]),
    # a composite grid only along b, four times the length of a
    "short a": (np.geomspace(0.05, 3.0, 60), _gauss(1e-4, 240.0, 600)),
    # a descending composite grid: its blocks are translates too
    "reversed": (_gauss(0.25, 4.5, 80)[::-1], np.linspace(0.0, 60.0, 1201)),
    # the freq-sweep sampler's inner block (frequency x radius)
    "freq-sweep inner": (np.linspace(0.5, 2.0, 336), _gauss(1e-9, 16.0, 16)),
}


@pytest.mark.parametrize("grids", KERNEL_GRIDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_matrix_matches_radial_kernel(n, grids):
    # the table path above x_min against the pointwise kernel on the same
    # products: fit error (<= 1.1e-12 in zeta) plus a phase error of a few ulps of x
    a, b = KERNEL_GRIDS[grids]
    assert bessel._table_plan(n, a, b) is not None
    assert _scaled_error(n, a, b) <= 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_odd_kernel_table_against_mpmath(n):
    # odd n takes the table path down to x = ODD_TABLE_X_MIN with its exact
    # 1- or 2-term amplitude: absolute error against 30-digit mpmath on
    # [1, x_min) (4.2e-16 measured; 8.3e-14 for n = 5 when the amplitude was
    # fitted), along both axes and with a zero radius, which raises no
    # floating-point warning
    import mpmath

    for a, b, axis in ((np.linspace(0.0, 3.0, 60), _gauss(1e-4, 4.0, 8), 0),
                       (np.geomspace(0.3, 2.0, 60), _gauss(0.5, 4.0, 8), 1)):
        assert bessel._table_plan(n, a, b).axis == axis
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = kernel_matrix(n, a, b)
        x = np.multiply.outer(a, b)
        mid = (x >= ODD_TABLE_X_MIN) & (x < HANKEL_X_MIN)
        assert mid.sum() > 1000
        with mpmath.workdps(30):
            nu = mpmath.mpf(n - 2) / 2
            ref = np.array([float(mpmath.besselj(nu, xm) / xm ** nu)
                            for xm in map(mpmath.mpf, x[mid])])
        err = np.abs(kernel[mid] - ref)
        assert np.max(err) <= 1e-15, (n, axis, float(x[mid][np.argmax(err)]))


def _operand(size, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _product_error(out, kernel, v):
    """max |out - kernel @ v| relative to max (|kernel| @ |v|), the scale of
    the rounding of any summation order."""
    return np.max(np.abs(out - kernel @ v)) / np.max(np.abs(kernel) @ np.abs(v))


def _factored(n, a, b):
    """Whether kernel_apply takes the factored product (odd n, a plan along
    a and b ascending) rather than the row panels of kernel_matrix."""
    plan = bessel._table_plan(n, a, b)
    return bool(n % 2 and plan is not None and plan.axis == 0 and np.all(np.diff(b) >= 0))


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("grids", KERNEL_GRIDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_apply_matches_kernel_matrix(monkeypatch, n, grids, flip):
    # every kernel grid in both orientations: the reversed grid, partial last
    # panels and zero nodes on either side; a case that should factor never
    # reaches the row panels, and one that should not never factors
    a, b = KERNEL_GRIDS[grids][::-1] if flip else KERNEL_GRIDS[grids]
    v = _operand(b.size)
    kernel = kernel_matrix(n, a, b)

    def refuse(*args, **kwargs):
        raise AssertionError("kernel_apply took the other path")

    if _factored(n, a, b):
        monkeypatch.setattr(bessel, "_row_panels", refuse)
    else:
        monkeypatch.setattr(bessel._TablePlan, "apply", refuse)
    out = kernel_apply(n, a, b, v)
    assert out.shape == a.shape
    assert _product_error(out, kernel, v) <= 2e-15


def test_kernel_apply_factors_the_oracle_transforms():
    # criterion 8(b)'s transform at bench and criterion size (6,000 x 600 and
    # 36,000 x 2,000, n = 3) factors; n = 2 on the same grids does not
    for r_panels, s_panels in ((600, 60), (3600, 200)):
        a, b = _gauss(1e-4, 240.0, r_panels), _gauss(1e-6, 1.0, s_panels)
        assert _factored(3, a, b) and not _factored(2, a, b)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_kernel_apply_scalar_and_empty(n):
    b = _gauss(0.25, 4.5, 8)
    v = _operand(b.size)
    out = kernel_apply(n, 1.7, b, v)
    assert np.ndim(out) == 0
    assert abs(out - radial_kernel(n, 1.7 * b) @ v) <= 2e-15 * np.abs(v).sum()
    assert kernel_apply(n, np.empty(0), b, v).shape == (0,)


@pytest.mark.parametrize("n", [3, 5])
def test_kernel_apply_keeps_products_below_the_split_out_of_the_tables(n):
    # a and b down to 1e-6: products as small as 1e-12, and 3,204 products
    # below the split (down to 5.6e-3) between nodes whose tables are kept,
    # where the Hankel terms (up to x^(-3) for n = 5) would swamp the sum;
    # the factored product matches the matrix to rounding and raises no
    # floating-point warning, so none of them entered E
    a, b = np.linspace(1e-6, 30.0, 601), np.linspace(1e-6, 6.0, 241)
    v = _operand(b.size)
    assert _factored(n, a, b)
    kept = np.multiply.outer(a * b.max() >= 1.0, b * a.max() >= 1.0)
    assert np.count_nonzero((np.multiply.outer(a, b) < ODD_TABLE_X_MIN) & kept) > 3000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = kernel_apply(n, a, b, v)
    assert _product_error(out, kernel_matrix(n, a, b), v) <= 2e-15


@pytest.mark.parametrize("n", [3, 5])
def test_kernel_apply_across_the_split_against_mpmath(n):
    # products up to 8, a third to two thirds of them below ODD_TABLE_X_MIN,
    # summed against 30-digit mpmath kernels
    import mpmath

    a, b = _gauss(0.05, 4.0, 4), np.linspace(0.05, 2.0, 40)
    v = _operand(b.size)
    assert _factored(n, a, b)
    x = np.multiply.outer(a, b)
    assert 0.2 < np.mean(x < ODD_TABLE_X_MIN) < 0.8
    with mpmath.workdps(30):
        nu = mpmath.mpf(n - 2) / 2
        kernel = [[mpmath.besselj(nu, xm) / xm ** nu for xm in map(mpmath.mpf, row)]
                  for row in x]
        vm = [mpmath.mpc(complex(z)) for z in v]
        ref = np.array([complex(mpmath.fsum(k * vj for k, vj in zip(row, vm)))
                        for row in kernel])
    scale = np.max(np.abs(np.array(kernel, dtype=float)) @ np.abs(v))
    err = np.max(np.abs(kernel_apply(n, a, b, v) - ref)) / scale
    assert err <= 2e-15, err


@pytest.mark.parametrize("n, a, b", [
    (2, np.sort(np.random.default_rng(5).uniform(0.0, 30.0, 400)), np.geomspace(0.25, 4.0, 300)),
    (3, np.geomspace(1e-3, 60.0, 500), np.linspace(0.5, 2.0, 301) ** 2),
    (6, _gauss(0.25, 4.5, 80), np.linspace(0.0, 60.0, 1201)),
    (2, np.empty(0), _gauss(0.25, 4.5, 80)),
])
def test_kernel_matrix_pointwise_cases_are_bitwise(n, a, b):
    # no panel structure on either side (random, geometric and squared
    # nodes), n >= 6 or an empty argument: radial_kernel on the outer product
    assert np.array_equal(kernel_matrix(n, a, b), radial_kernel(n, np.multiply.outer(a, b)))


@pytest.mark.parametrize("n, a, b", [
    # the dense-oracle transform: 6,000 radii on 600 profile nodes (430-row panels)
    (3, _gauss(1e-4, 240.0, 600), _gauss(1e-6, 1.0, 60)),
    # Criterion 8(b)'s evolution: 60 radii from 0 on a 6,000-node frequency grid
    (3, np.linspace(0.0, 3.0, 60), _gauss(1e-4, 240.0, 600)),
    (2, np.linspace(0.0, 60.0, 3001), _gauss(0.25, 4.5, 80)),
    (4, np.geomspace(1e-3, 60.0, 2000), np.linspace(0.0, 4.0, 301)),
])
def test_kernel_panels_keep_every_entry(n, a, b):
    # row panels start at multiples of PANEL_ORDER and factor along the
    # whole arrays' panels: each entry is the whole matrix's, bitwise, and a
    # radius or argument of 0 raises no floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = kernel_matrix(n, a, b)
        panels = list(kernel_panels(n, a, b))
    assert len(panels) > 1
    for rows, kernel in panels:
        assert rows.start % PANEL_ORDER == 0
        assert np.array_equal(kernel, whole[rows])
    assert panels[-1][0].stop == a.size


def test_picard_grid_reaches_radial_kernel_below_x_min_only(monkeypatch):
    # the bench picard NLS grid (1,230 x 660): 9.7% of its entries have
    # s r < x_min; the table path, along the 10-node frequency grid (the
    # 20-node radius grid is not a PANEL_ORDER composite), serves the rest,
    # so a regression in the panel detection shows here and not only as a
    # slower bench
    pts = []

    def counting(n, x, out=None):
        pts.append(np.size(x))
        return radial_kernel(n, x, out)

    monkeypatch.setattr(bessel, "radial_kernel", counting)
    grid = build_solver_grid(2, (0.5, 2.0), 20.0 / 11.0, 4.0, get_symbol("schrodinger"),
                             real_field=False)
    assert grid.kernel.shape == (1230, 660)
    assert bessel._table_plan(2, grid.freq.nodes, grid.r).axis == 0
    assert 0 < sum(pts) <= 0.15 * grid.kernel.size, sum(pts) / grid.kernel.size


def test_dense_oracle_grid_reaches_radial_kernel_below_odd_split_only(monkeypatch):
    # the dense-oracle transform kernel (n = 3, 6,000 radii on 600 profile
    # nodes): exactly its 2.7% of products below ODD_TABLE_X_MIN reach
    # radial_kernel (14.7% lie below x_min), so a regression in the odd
    # split shows here and not only as a slower bench
    pts = []

    def counting(n, x, out=None):
        pts.append(np.size(x))
        return radial_kernel(n, x, out)

    a, b = _gauss(1e-4, 240.0, 600), _gauss(1e-6, 1.0, 60)
    monkeypatch.setattr(bessel, "radial_kernel", counting)
    kernel_matrix(3, a, b)
    below = int(np.count_nonzero(np.multiply.outer(a, b) < ODD_TABLE_X_MIN))
    assert sum(pts) == below and 0 < below <= 0.03 * a.size * b.size, sum(pts)
