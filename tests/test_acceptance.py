"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
quantity against its pinned tolerance.  Slope-based criteria are re-run at
refined resolution (phase step halved, time window doubled) by the final
grid-robustness criterion, which caches the base runs from this module; its
companion 12b compares band 0's norm itself across the two resolutions.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rsl import admissibility as adm
from rsl.dispersion import builtin_symbols, get_symbol
from rsl.estimates import (
    canonical_band_amplitude,
    counterexample_schrodinger,
    counterexample_wave,
    knapp_fractional,
    maximal_check,
    measure_annulus_norms,
    measure_frequency_norms,
    annulus_predicted_slope,
)
from rsl.fastfield import BandFieldSampler, SamplerConfig
from rsl.grids import QuadraturePolicy

_CACHE = {}
# criterion 12's refined resolution: phase step halved (with T0 doubled)
_REFINED = SamplerConfig(policy=QuadraturePolicy(np.pi / 8))


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _slope(norms):
    ks = sorted(norms)
    logs = [math.log2(norms[k].norm) for k in ks]
    return float(np.polyfit(ks, logs, 1)[0])


def _band0_norm(norms):
    """Band 0's tail-extrapolated norm, or its norm where no tail decays."""
    r = norms[0]
    return r.extrapolated if r.extrapolated is not None else r.norm


def _freq_slopes(config=None, T0=64.0, tag="base"):
    key = ("freq", tag)
    if key not in _CACHE:
        cfg = config or SamplerConfig()
        sch = get_symbol("schrodinger")
        res = measure_frequency_norms(sch, 2, [4.0, 10.0 / 3.0], range(-3, 4),
                                      T0=T0, max_doublings=1, config=cfg)
        wave = get_symbol("wave")
        res_w = measure_frequency_norms(wave, 3, [4.0], range(-3, 4),
                                        T0=1.5 * T0, max_doublings=1, config=cfg)
        _CACHE[key] = {
            "sch_q4": _slope(res[4.0]),
            "sch_q103": _slope(res[10.0 / 3.0]),
            "sch_q103_nonconv": any(r.nonconvergent for r in res[10.0 / 3.0].values()),
            "wave_q4": _slope(res_w[4.0]),
            "sch_q4_band0": _band0_norm(res[4.0]),
            "sch_q103_band0": _band0_norm(res[10.0 / 3.0]),
            "wave_q4_band0": _band0_norm(res_w[4.0]),
        }
    return _CACHE[key]


def _annulus_slopes(config=None, tag="base"):
    key = ("annulus", tag)
    if key not in _CACHE:
        cfg = config or SamplerConfig()
        sch = get_symbol("schrodinger")
        qs = [10.0 / 3.0, 4.0, 6.0]
        outer = measure_annulus_norms(sch, 2, qs, 0, range(3, 9), "outer_thm2",
                                      max_doublings=1, config=cfg)
        inner = measure_annulus_norms(sch, 2, qs, 0, range(-5, 1), "inner",
                                      max_doublings=1, config=cfg)
        _CACHE[key] = {
            q: {"outer": _slope(outer[q]), "inner": _slope(inner[q])} for q in qs
        }
    return _CACHE[key]


def test_criterion_1_schrodinger_frequency_scaling():
    t0 = time.time()
    slopes = _freq_slopes()
    ok4 = abs(slopes["sch_q4"] - 0.0) <= 0.05
    ok103 = abs(slopes["sch_q103"] - (-0.2)) <= 0.05
    elapsed = time.time() - t0
    assert _line(
        "criterion 1 (frequency scaling, n=2)",
        ok4 and ok103 and elapsed <= 600,
        f"q=4 slope {slopes['sch_q4']:+.4f} (|.|<=0.05), "
        f"q=10/3 slope {slopes['sch_q103']:+.4f} (target -0.2 +- 0.05), "
        f"{elapsed:.0f}s",
    )


def test_criterion_2_wave_frequency_scaling():
    slopes = _freq_slopes()
    ok = abs(slopes["wave_q4"] - 0.5) <= 0.05
    assert _line("criterion 2 (wave n=3 q=4)", ok,
                 f"slope {slopes['wave_q4']:+.4f} (target 0.5 +- 0.05)")


def test_criterion_3_annulus_scaling_bounds():
    t0 = time.time()
    slopes = _annulus_slopes()
    ok = True
    details = []
    for q in (10.0 / 3.0, 4.0, 6.0):
        bi = annulus_predicted_slope(2, q, "inner")
        bo = annulus_predicted_slope(2, q, "outer_thm2")
        oki = slopes[q]["inner"] <= bi + 0.1
        oko = slopes[q]["outer"] <= bo + 0.1
        ok = ok and oki and oko
        details.append(
            f"q={q:.3g}: inner {slopes[q]['inner']:+.3f}<= {bi:+.3f}+0.1 [{oki}], "
            f"outer {slopes[q]['outer']:+.3f}<= {bo:+.3f}+0.1 [{oko}]"
        )
    assert _line("criterion 3 (annulus bounds)", ok,
                 "; ".join(details) + f"; {time.time()-t0:.0f}s")


def test_criterion_4_wave_sharpness():
    R = [2.0**i for i in range(4, 11)]
    rep = counterexample_wave(2, 4, R)
    diverges = rep.monotone and min(rep.meta["relative_increments"]) > 1e-2
    ctrl = counterexample_wave(2, 4.5, [2.0**i for i in range(4, 13)])
    assert _line(
        "criterion 4 (wave sharpness q=4=2n/(n-1))",
        diverges and ctrl.saturated,
        f"min octave increment {min(rep.meta['relative_increments']):.3f} > 1e-2, "
        f"monotone {rep.monotone}; control q=4.5 saturates {ctrl.saturated}",
    )
    _CACHE[("counter_wave",)] = rep


def test_criterion_5_schrodinger_sharpness():
    fit = counterexample_schrodinger(2, 3, range(4, 9))
    ok1 = fit.slope >= 1.0 / 6.0 - 0.05 and fit.slope > 0
    fit_e = counterexample_schrodinger(2, Fraction(10, 3), range(4, 9))
    ok2 = abs(fit_e.slope) <= 0.05
    _CACHE[("counter_sch", "base")] = (fit.slope, fit_e.slope)
    assert _line(
        "criterion 5 (concentrated-data sharpness)",
        ok1 and ok2,
        f"q=3 slope {fit.slope:+.4f} >= {1/6 - 0.05:.4f}; "
        f"q=10/3 endpoint slope {fit_e.slope:+.4f} (|.| <= 0.05)",
    )


def test_criterion_5b_endpoint_consistency():
    # the frequency fit and the counterexample family must agree that no
    # divergence occurs at the endpoint exponent
    slopes = _freq_slopes()
    _, ep_slope = _CACHE.get(("counter_sch", "base"), (None, None))
    if ep_slope is None:
        ep_slope = counterexample_schrodinger(2, Fraction(10, 3), range(4, 9)).slope
    ok = (not slopes["sch_q103_nonconv"]) and abs(ep_slope) <= 0.05
    assert _line(
        "criterion 5b (endpoint consistency q=10/3)",
        ok,
        f"window accounting nonconvergent={slopes['sch_q103_nonconv']}, "
        f"family slope {ep_slope:+.4f}",
    )


def test_criterion_6_maximal_function():
    fit2 = maximal_check(2.0, range(2, 7))
    fit1 = maximal_check(1.0, range(2, 7))
    ok = abs(fit2.slope - 0.5) <= 0.1 and abs(fit1.slope - 0.5) <= 0.1
    _CACHE[("maximal", "base")] = (fit2.slope, fit1.slope)
    assert _line(
        "criterion 6 (maximal function)",
        ok,
        f"a=2 slope {fit2.slope:.4f} (0.5 +- 0.1), a=1 slope {fit1.slope:.4f} (0.5 +- 0.1)",
    )


def test_criterion_7_knapp_probe():
    deltas = [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]
    ok = True
    details = []
    slopes = {}
    for (q, r) in ((3.0, 3.0), (4.0, 4.0)):
        rep = knapp_fractional(1.5, deltas, q, r)
        good = abs(rep.slope - rep.predicted_slope) <= 0.1
        ok = ok and good
        slopes[(q, r)] = rep.slope
        details.append(f"(q,r)=({q:.0f},{r:.0f}): slope {rep.slope:+.4f} "
                       f"vs {rep.predicted_slope:+.4f} [{good}]")
    _CACHE[("knapp", "base")] = slopes
    assert _line("criterion 7 (tube probe sigma=1.5)", ok, "; ".join(details))


def test_criterion_8_oracles():
    from rsl.bessel import bessel_j, bessel_j_integral
    from rsl.cutoffs import smooth_bump
    from rsl.grids import PhysicalGrid, gauss_panel_grid
    from rsl.propagator import evolve, oracle_wave_cosine_3d
    from rsl.transform import RadialProfile, fourier_bessel, profile_from_fn

    # (a) complex-Gaussian closed form for phi = r^2
    sch = get_symbol("schrodinger")
    g = gauss_panel_grid(1e-6, 14.0, 700)
    prof = profile_from_fn(lambda s: np.exp(-(s**2) / 2.0), g, 2)
    t = np.array([0.0, 0.7, 2.0, 5.0])
    r = np.linspace(1e-6, 8.0, 41)
    fld = evolve(sch, prof, None, PhysicalGrid(r, t))
    a = 0.5 - 1j * t[:, None]
    oracle = (2 * a) ** (-1.0) * np.exp(-(r[None, :] ** 2) / (4 * a))
    err_g = float(np.max(np.abs(fld.values - oracle)) / np.max(np.abs(oracle)))

    # (b) half-wave combination against the 3-D radial d'Alembert value
    def g_phys(x):
        return smooth_bump(2.0 * np.asarray(x, dtype=float))

    rg = gauss_panel_grid(1e-6, 1.0, 200)
    gprof = RadialProfile(rg, g_phys(rg.nodes), 3)
    sf = gauss_panel_grid(1e-4, 240.0, 3600)
    ghat = RadialProfile(sf, fourier_bessel(gprof, sf.nodes), 3)
    wave = get_symbol("wave")
    tw = np.array([0.5, 3.0, 9.0])
    rw = np.linspace(0.05, 14.0, 280)
    plus = evolve(wave, ghat, None, PhysicalGrid(rw, tw))
    minus = evolve(wave, ghat, None, PhysicalGrid(rw, -tw[::-1]))
    cosv = (plus.values + minus.values[::-1]) / 2.0
    err_w = 0.0
    for i, ti in enumerate(tw):
        oracle_w = oracle_wave_cosine_3d(g_phys, float(ti), rw)
        num = np.sqrt(np.sum(np.abs(cosv[i] - oracle_w) ** 2 * rw**2))
        den = np.sqrt(np.sum(oracle_w**2 * rw**2))
        err_w = max(err_w, float(num / den))

    # (c) Bessel evaluations against the defining-integral quadrature
    rr = np.exp(np.linspace(np.log(1e-2), np.log(1e2), 48))
    err_b = 0.0
    for n in (2, 3, 4, 5):
        nu = (n - 2) / 2.0
        vals = bessel_j(nu, rr)
        orc = np.array([bessel_j_integral(nu, x) for x in rr])
        scale = np.maximum(np.abs(orc), rr ** (-0.5))
        err_b = max(err_b, float(np.max(np.abs(vals - orc) / scale)))

    ok = err_g <= 1e-6 and err_w <= 1e-5 and err_b <= 1e-8
    assert _line(
        "criterion 8 (oracles)",
        ok,
        f"complex-Gaussian {err_g:.2e} <= 1e-6; d'Alembert {err_w:.2e} <= 1e-5; "
        f"Bessel-integral {err_b:.2e} <= 1e-8",
    )


def test_criterion_9_unitarity_suite():
    t0 = time.time()
    cfg = SamplerConfig(dr_frac=8.0)
    names = ["schrodinger", "wave", "klein-gordon", "beam", "fourth-order", "fractional:1.5"]
    worst = 0.0
    worst_case = ""
    for name in names:
        sym = get_symbol(name)
        for k in range(-4, 5):
            from rsl.dispersion import regime_exponents

            m = regime_exponents(sym, k).m
            amp = canonical_band_amplitude(2, k)
            sampler = BandFieldSampler(sym, 2, k, amp, T=4.0 * 2.0 ** (-m * k), config=cfg)
            for t in (0.0, sampler.t[-1] / 2, sampler.t[-1]):
                dev = abs(sampler.mass_at(t) - sampler.mass_true) / sampler.mass_true
                if dev > worst:
                    worst, worst_case = dev, f"{name} k={k} t={t:.3g}"
    # deviation of the L2 mass is twice the norm deviation to first order
    norm_dev = worst / 2.0
    assert _line(
        "criterion 9 (unitarity suite)",
        norm_dev <= 1e-4,
        f"max time-slice L2 deviation {norm_dev:.2e} <= 1e-4 ({worst_case}), "
        f"{time.time()-t0:.0f}s",
    )


def test_criterion_10_admissibility_golden():
    ok = True
    # figure vertices on the boundary for n in 2..5
    for n in range(2, 6):
        vs = adm.figure_vertices(n)
        d = adm.is_radial_schrodinger_admissible(n, *vs["D'"])
        c = adm.is_radial_schrodinger_admissible(n, *vs["C'"])
        ok = ok and d.admissible and d.boundary and c.boundary and c.unknown
        ok = ok and vs["B'"][0] == 2 and adm.is_radial_schrodinger_admissible(n, *vs["B'"]).admissible
    # pair recipes satisfy the closure systems exactly (rational arithmetic)
    for s_w, n in ((Fraction(3, 10), 2), (Fraction(24, 100), 2), (Fraction(12, 100), 3),
                   (Fraction(1, 10), 4)):
        sel = adm.choose_pairs_nlw(n, s_w)
        ok = ok and adm.gap_condition("wave", n, sel.q, sel.r, s_w)
        ok = ok and adm.gap_condition("wave", n, sel.qt, sel.rt, 1 - s_w)
        ok = ok and (sel.p + 1) * adm.dual(sel.rt) == sel.r
        ok = ok and (sel.p + 1) * adm.dual(sel.qt) == sel.q
    for s_sch in (Fraction(-1, 10), Fraction(-1, 5), Fraction(-3, 20)):
        sel = adm.choose_pairs_nls(2, s_sch, s_sch)
        ok = ok and adm.gap_condition("schrodinger", 2, sel.q, sel.r, s_sch)
        ok = ok and (sel.p + 1) * adm.dual(sel.rt) == sel.q
    # thresholds to 1e-12
    ok = ok and abs(adm.s0(2) - (5 - math.sqrt(17)) / 4) <= 1e-12
    ok = ok and abs(adm.s0(3) - (12 - math.sqrt(129)) / 6) <= 1e-12
    assert _line("criterion 10 (admissibility golden tables)", ok,
                 "vertices n=2..5, pair systems exact, s0 values to 1e-12")


def test_criterion_11_nonlinear_suite():
    from rsl.nonlinear import fnls_experiment, nls_small_data_experiment

    t0 = time.time()
    rep = nls_small_data_experiment(2, Fraction(-1, 10), 1e-3, seeds=range(8), T=16.0)
    ok_nls = rep.all_converged and rep.max_contraction <= 0.5
    dev_ok = all(r["max_tail_deviation"] <= 1e-2 * 1e-3 and r["tail_decreasing"]
                 for r in rep.runs)
    repf = fnls_experiment(2, 1.5, 1.5, 0.0, 1e-3, seeds=range(2), T=16.0)
    ok_f = repf.all_converged and repf.max_mass_drift <= 1e-4
    elapsed = time.time() - t0
    assert _line(
        "criterion 11 (nonlinear small-data suite)",
        ok_nls and dev_ok and ok_f and elapsed <= 1800,
        f"nls 8 seeds: converged {rep.all_converged}, contraction {rep.max_contraction:.2e} <= 0.5, "
        f"deviations <= 1e-5: {dev_ok}; fnls mass drift {repf.max_mass_drift:.2e} <= 1e-4; "
        f"{elapsed:.0f}s",
    )


def test_criterion_12_grid_robustness():
    base_f = _freq_slopes()
    fine_f = _freq_slopes(config=_REFINED, T0=128.0, tag="fine")
    base_a = _annulus_slopes()
    fine_a = _annulus_slopes(config=_REFINED, tag="fine")
    deltas = {
        "c1 q=4": abs(base_f["sch_q4"] - fine_f["sch_q4"]),
        "c1 q=10/3": abs(base_f["sch_q103"] - fine_f["sch_q103"]),
        "c2 wave": abs(base_f["wave_q4"] - fine_f["wave_q4"]),
    }
    for q in (10.0 / 3.0, 4.0, 6.0):
        deltas[f"c3 inner q={q:.3g}"] = abs(base_a[q]["inner"] - fine_a[q]["inner"])
        deltas[f"c3 outer q={q:.3g}"] = abs(base_a[q]["outer"] - fine_a[q]["outer"])
    # criterion 5: doubled probe grids
    base5 = _CACHE.get(("counter_sch", "base"))
    if base5 is None:
        base5 = (counterexample_schrodinger(2, 3, range(4, 9)).slope,
                 counterexample_schrodinger(2, Fraction(10, 3), range(4, 9)).slope)
    fine5 = counterexample_schrodinger(2, 3, range(4, 9), density=2.0)
    deltas["c5 q=3"] = abs(base5[0] - fine5.slope)
    # criterion 6: doubled time sampling and window
    base6 = _CACHE.get(("maximal", "base")) or (
        maximal_check(2.0, range(2, 7)).slope, maximal_check(1.0, range(2, 7)).slope
    )
    fine6 = (maximal_check(2.0, range(2, 7), samples=513, c_time=8.0).slope,
             maximal_check(1.0, range(2, 7), samples=513, c_time=8.0).slope)
    deltas["c6 a=2"] = abs(base6[0] - fine6[0])
    deltas["c6 a=1"] = abs(base6[1] - fine6[1])
    # criterion 7: doubled quadrature density
    base7 = _CACHE.get(("knapp", "base")) or {
        pair: knapp_fractional(1.5, [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6], *pair).slope
        for pair in ((3.0, 3.0), (4.0, 4.0))
    }
    for pair in ((3.0, 3.0), (4.0, 4.0)):
        rep = knapp_fractional(1.5, [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6], *pair,
                               density=2.0)
        deltas[f"c7 {pair}"] = abs(base7[pair] - rep.slope)
    worst = max(deltas.values())
    ok = worst <= 0.02
    assert _line(
        "criterion 12 (grid robustness)",
        ok,
        "max slope change "
        + f"{worst:.4f} <= 0.02 ({max(deltas, key=deltas.get)}); "
        + ", ".join(f"{k}: {v:.4f}" for k, v in deltas.items()),
    )


def test_criterion_12b_band_norm_robustness():
    # a slope cannot see a k-independent error; band 0's own norm can
    base = _freq_slopes()
    fine = _freq_slopes(config=_REFINED, T0=128.0, tag="fine")
    rel = {
        label: abs(fine[key] - base[key]) / base[key]
        for label, key in (("c1 q=4", "sch_q4_band0"), ("c1 q=10/3", "sch_q103_band0"),
                           ("c2 wave", "wave_q4_band0"))
    }
    worst = max(rel.values())
    assert _line(
        "criterion 12b (band-0 norm robustness)",
        worst <= 1e-2,
        f"max relative change {worst:.1e} <= 1e-2 ({max(rel, key=rel.get)}); "
        + ", ".join(f"{k}: {v:.1e}" for k, v in rel.items()),
    )
