import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsl.dispersion import get_symbol
from rsl.grids import PhysicalGrid, trapezoid_weights
from rsl.transform import (canonical_band_profile, l2_norm, project, radial_norm, sobolev_norm,
                           spacetime_norm, sphere_area)


def _norm(values, r, t, q, p, n=2):
    """L^q_t L^p_x norm of samples on the (t, r) grid, trapezoid in both."""
    return spacetime_norm(values, trapezoid_weights(r) * r ** (n - 1), trapezoid_weights(t),
                          n, q, p)


def test_indicator_closed_form():
    # F = 1 on t in [0,1], r in [0,1]; n=2, q=r=2 -> sqrt(pi)
    r = np.linspace(1e-9, 1.0, 4000)
    t = np.linspace(0.0, 1.0, 400)
    assert _norm(np.ones((t.size, r.size)), r, t, 2, 2) == pytest.approx(math.sqrt(math.pi),
                                                                         rel=1e-3)


def test_sup_norms():
    r = np.linspace(0.5, 2.0, 50)
    t = np.linspace(0.0, 1.0, 20)
    vals = np.outer(1.0 + t, np.ones(r.size))
    assert _norm(vals, r, t, math.inf, math.inf) == pytest.approx(2.0)
    v = _norm(vals, r, t, math.inf, 2)
    assert v == pytest.approx(2.0 * math.sqrt(2 * math.pi * (2.0**2 - 0.5**2) / 2), rel=1e-3)


@settings(max_examples=20, deadline=None)
@given(
    q=st.sampled_from([1.5, 2.0, 3.0]),
    qp=st.sampled_from([4.0, 6.0]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_hoelder_consistency(q, qp, seed):
    # ||F||_q <= |domain|^{1/q - 1/q'} ||F||_{q'} on bounded domains
    rng = np.random.default_rng(seed)
    r = np.linspace(0.5, 4.0, 120)
    t = np.linspace(0.0, 2.0, 25)
    vals = rng.standard_normal((25, 120))
    lo = _norm(vals, r, t, q, q)
    hi = _norm(vals, r, t, qp, qp)
    om = 2 * math.pi
    measure = (t[-1] - t[0]) * om * float(np.sum(trapezoid_weights(r) * r))
    assert lo <= measure ** (1.0 / q - 1.0 / qp) * hi * (1 + 1e-12)


def test_sobolev_norm_examples():
    prof = project(canonical_band_profile(2, 1), 1)
    base = l2_norm(prof)
    assert sobolev_norm(prof, 0.0) == pytest.approx(base, rel=1e-12)
    # band [1, 4]: multiplier bounds s^s between 2^{s(k-1)} and 2^{s(k+1)}
    for s in (0.5, 1.0, -0.5):
        v = sobolev_norm(prof, s)
        lo, hi = sorted((2.0 ** (s * 0), 2.0 ** (s * 2)))
        assert lo * base * (1 - 1e-12) <= v <= hi * base * (1 + 1e-12)


def test_grid_refinement_stability():
    # doubling both resolutions changes the reported norm by < 0.5%
    sym = get_symbol("schrodinger")
    prof = canonical_band_profile(2, 0)
    from rsl.propagator import evolve

    vals = []
    for factor in (1, 2):
        r = np.linspace(1e-6, 40.0, 600 * factor)
        t = np.linspace(0.0, 4.0, 60 * factor)
        fld = evolve(sym, prof, 0, PhysicalGrid(r, t))
        vals.append(_norm(fld.values, r, t, 4, 4))
    assert abs(vals[1] - vals[0]) / vals[1] < 5e-3


REDUCTION_CASES = [("x", q, r, None) for q, r in
                   [(2.0, 2.0), (10.0 / 3.0, 4.0), (4.0, math.inf), (math.inf, 2.0),
                    (math.inf, math.inf)]] + [("s", None, 2.0, s) for s in (-0.1, 0.0, 0.75)]


@pytest.mark.parametrize("side, q, r, s", REDUCTION_CASES,
                         ids=[f"{c[0]}-q{c[1]}-r{c[2]}-s{c[3]}" for c in REDUCTION_CASES])
@pytest.mark.parametrize("n", [2, 3])
def test_shared_reduction_matches_double_loop(side, q, r, s, n):
    # physical side: spacetime_norm of (t, r) samples; frequency side: the
    # per-row H^s norms; each against explicit sums over every sample
    rng = np.random.default_rng(7)
    nt, nr = 9, 23
    vals = rng.standard_normal((nt, nr)) + 1j * rng.standard_normal((nt, nr))
    x = np.sort(rng.uniform(0.1, 5.0, nr))
    w = rng.uniform(0.05, 1.0, nr)
    wt = rng.uniform(0.05, 1.0, nt)
    power = n - 1 if side == "x" else 2.0 * s + n - 1
    om = sphere_area(n)
    inner = []
    for i in range(nt):
        if math.isinf(r):
            inner.append(max(abs(vals[i, j]) for j in range(nr)))
        else:
            acc = 0.0
            for j in range(nr):
                acc += om * w[j] * x[j] ** power * abs(vals[i, j]) ** r
            inner.append(acc ** (1.0 / r))
    measure = w * x**power
    if side == "s":
        np.testing.assert_allclose(radial_norm(vals, measure, n, r), inner, rtol=1e-13, atol=0)
        return
    if math.isinf(q):
        ref = max(inner)
    else:
        ref = sum(wt[i] * inner[i] ** q for i in range(nt)) ** (1.0 / q)
    assert spacetime_norm(vals, measure, wt, n, q, r) == pytest.approx(ref, rel=1e-13, abs=0)
