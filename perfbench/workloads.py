"""The four benchmark workloads: acceptance-criterion runs of the rsl library.

Each workload has a `prepare(seed, size)` step (part of set-up time) that
imports what the pass calls and builds its inputs, and a `run(inputs)` step
(the timed pass) that makes the library calls and checks every output.
`run` returns one `Check` per output check.

Every workload comes in three sizes of the same library calls:

- `criterion`: the acceptance criterion's own configuration (7-45 s a pass).
- `bench` (the default): a reduced configuration of 1-3 s a pass, so that a
  run of the benchmark times many passes and reports their median.  It keeps
  every layer the criterion exercises busy, and its outputs are checked at
  the criterion's own tolerances, which hold at this size.
- `smoke`: tiny configurations whose checks only ask for finite, positive
  results (the criteria's tolerances do not hold at toy resolution); they
  exist to check the harness wiring in seconds.

Only `picard` uses the seed: its data seeds are derived from it, and seed 0
at criterion size reproduces criterion 11's range(8) / range(2) and the
solve-nlw range(4).  The other workloads are fixed deterministic
configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _slope(norms):
    import numpy as np

    ks = sorted(norms)
    logs = [math.log2(norms[k].norm) for k in ks]
    return float(np.polyfit(ks, logs, 1)[0])


def _finite_positive(name, value):
    ok = math.isfinite(value) and value > 0
    return Check(name, ok, f"{value!r} finite and > 0")


def _within(name, value, target, tol):
    return Check(name, abs(value - target) <= tol,
                 f"{value:+.4f} (target {target:+.4f} +- {tol})")


# --------------------------------------------------------------------------
# freq-sweep: criteria 1, 2 and 5b
# --------------------------------------------------------------------------

_FREQ = {"criterion": (range(-3, 4), 64.0), "bench": (range(-1, 2), 16.0),
         "smoke": (range(-1, 2), 4.0)}


def _prepare_freq(seed, size):
    from rsl.dispersion import get_symbol
    from rsl.estimates import measure_frequency_norms

    ks, T0 = _FREQ[size]
    return {"measure": measure_frequency_norms, "sch": get_symbol("schrodinger"),
            "wave": get_symbol("wave"), "ks": ks, "T0": T0, "smoke": size == "smoke"}


def _run_freq(inp):
    measure, ks, T0 = inp["measure"], inp["ks"], inp["T0"]
    res = measure(inp["sch"], 2, [4.0, 10.0 / 3.0], ks, T0=T0, max_doublings=1)
    res_w = measure(inp["wave"], 3, [4.0], ks, T0=1.5 * T0, max_doublings=1)
    s4, s103, sw = _slope(res[4.0]), _slope(res[10.0 / 3.0]), _slope(res_w[4.0])
    nonconv = any(r.nonconvergent for r in res[10.0 / 3.0].values())
    if inp["smoke"]:
        return [_finite_positive("sch q=4 norm", res[4.0][0].norm),
                _finite_positive("sch q=10/3 norm", res[10.0 / 3.0][0].norm),
                _finite_positive("wave q=4 norm", res_w[4.0][0].norm)]
    return [
        _within("criterion 1 q=4 slope", s4, 0.0, 0.05),
        _within("criterion 1 q=10/3 slope", s103, -0.2, 0.05),
        _within("criterion 2 wave n=3 q=4 slope", sw, 0.5, 0.05),
        Check("criterion 5b no q=10/3 band nonconvergent", not nonconv,
              f"nonconvergent={nonconv}"),
    ]


# --------------------------------------------------------------------------
# annulus-sweep: criterion 3
# --------------------------------------------------------------------------

_ANNULUS_QS = (10.0 / 3.0, 4.0, 6.0)


_ANNULUS = {"criterion": (range(3, 9), range(-5, 1)), "bench": (range(3, 6), range(-2, 1)),
            "smoke": (range(3, 5), range(-1, 1))}


def _prepare_annulus(seed, size):
    from rsl.dispersion import get_symbol
    from rsl.estimates import annulus_predicted_slope, measure_annulus_norms

    outer, inner = _ANNULUS[size]
    return {"measure": measure_annulus_norms, "predicted": annulus_predicted_slope,
            "sch": get_symbol("schrodinger"), "outer": outer, "inner": inner,
            "smoke": size == "smoke"}


def _run_annulus(inp):
    measure, sch = inp["measure"], inp["sch"]
    outer = measure(sch, 2, _ANNULUS_QS, 0, inp["outer"], "outer_thm2", max_doublings=1)
    inner = measure(sch, 2, _ANNULUS_QS, 0, inp["inner"], "inner", max_doublings=1)
    checks = []
    for q in _ANNULUS_QS:
        for regime, res in (("inner", inner), ("outer_thm2", outer)):
            slope = _slope(res[q])
            bound = inp["predicted"](2, q, regime)
            name = f"criterion 3 q={q:.3g} {regime} slope"
            if inp["smoke"]:
                checks.append(_finite_positive(name + " norm", min(r.norm for r in res[q].values())))
            else:
                checks.append(Check(name, slope <= bound + 0.1,
                                    f"{slope:+.4f} <= {bound:+.4f} + 0.1"))
    return checks


# --------------------------------------------------------------------------
# picard: criterion 11 plus the solve-nlw defaults
# --------------------------------------------------------------------------

# (NLS seeds, FNLS seeds, NLW seeds, T) per pass
_PICARD = {"criterion": (8, 2, 4, 16.0), "bench": (4, 1, 2, 4.0), "smoke": (2, 1, 1, 2.0)}


def _prepare_picard(seed, size):
    from rsl.nonlinear import (fnls_experiment, nls_small_data_experiment,
                               nlw_small_data_experiment)

    n_nls, n_fnls, n_nlw, T = _PICARD[size]
    return {"nls": nls_small_data_experiment, "fnls": fnls_experiment,
            "nlw": nlw_small_data_experiment,
            "nls_seeds": range(n_nls * seed, n_nls * (seed + 1)),
            "fnls_seeds": range(n_fnls * seed, n_fnls * (seed + 1)),
            "nlw_seeds": range(n_nlw * seed, n_nlw * (seed + 1)),
            "T": T, "smoke": size == "smoke"}


def _run_picard(inp):
    T = inp["T"]
    rep = inp["nls"](2, Fraction(-1, 10), 1e-3, seeds=inp["nls_seeds"], T=T)
    repf = inp["fnls"](2, 1.5, 1.5, 0.0, 1e-3, seeds=inp["fnls_seeds"], T=T)
    repw = inp["nlw"](2, Fraction(3, 10), 1e-3, seeds=inp["nlw_seeds"], T=T)
    checks = []
    for r in rep.runs:
        ok = (r["converged"] and r["contraction"] <= 0.5
              and r["max_tail_deviation"] <= 1e-2 * 1e-3 and r["tail_decreasing"])
        checks.append(Check(
            f"criterion 11 nls seed {r['seed']}", ok,
            f"converged {r['converged']}, contraction {r['contraction']:.2e} <= 0.5, "
            f"tail {r['max_tail_deviation']:.2e} <= 1e-5, decreasing {r['tail_decreasing']}"))
    for r in repf.runs:
        ok = r["converged"] and r["mass_drift"] <= 1e-4
        checks.append(Check(f"criterion 11 fnls seed {r['seed']}", ok,
                            f"converged {r['converged']}, mass drift {r['mass_drift']:.2e} <= 1e-4"))
    for r in repw.runs:
        ok = r["converged"] and r["contraction"] <= 0.5
        checks.append(Check(f"solve-nlw seed {r['seed']}", ok,
                            f"converged {r['converged']}, contraction {r['contraction']:.2e} <= 0.5"))
    return checks


# --------------------------------------------------------------------------
# dense-oracle: criterion 8 (a) and (b); (c) is scipy.integrate's cost, not rsl's
# --------------------------------------------------------------------------

# part (b): (frequency range, frequency panels, profile panels, times, r_max,
# r points).  Outside smoke size the range stays at 240, which the 1e-5
# tolerance needs, and the panels resolve the phase for these times and radii.
_DENSE = {"criterion": (240.0, 3600, 200, (0.5, 3.0, 9.0), 14.0, 280),
          "bench": (240.0, 600, 60, (0.5, 2.0), 3.0, 60),
          "smoke": (4.8, 72, 200, (0.01, 0.06, 0.18), 0.28, 5)}


def _prepare_dense(seed, size):
    import numpy as np

    from rsl.cutoffs import smooth_bump
    from rsl.dispersion import get_symbol
    from rsl.grids import PhysicalGrid, gauss_panel_grid
    from rsl.propagator import evolve, oracle_wave_cosine_3d
    from rsl.transform import RadialProfile, fourier_bessel, profile_from_fn

    def g_phys(x):
        return smooth_bump(2.0 * np.asarray(x, dtype=float))

    sf_max, sf_panels, rg_panels, tw, r_max, r_points = _DENSE[size]
    g = gauss_panel_grid(1e-6, 14.0, 700)
    rg = gauss_panel_grid(1e-6, 1.0, rg_panels)
    return {
        "np": np, "evolve": evolve, "fourier_bessel": fourier_bessel,
        "oracle_w": oracle_wave_cosine_3d, "RadialProfile": RadialProfile,
        "PhysicalGrid": PhysicalGrid, "g_phys": g_phys,
        "sch": get_symbol("schrodinger"), "wave": get_symbol("wave"),
        "gauss": profile_from_fn(lambda s: np.exp(-(s**2) / 2.0), g, 2),
        "t": np.array([0.0, 0.7, 2.0, 5.0]),
        "r": np.linspace(1e-6, 8.0, 41),
        "gprof": RadialProfile(rg, g_phys(rg.nodes), 3),
        "sf": gauss_panel_grid(1e-4, sf_max, sf_panels),
        "tw": np.array(tw),
        "rw": np.linspace(0.05, r_max, r_points),
        "smoke": size == "smoke",
    }


def _run_dense(inp):
    np, evolve, PG = inp["np"], inp["evolve"], inp["PhysicalGrid"]
    # (a) complex-Gaussian closed form for phi = r^2
    t, r = inp["t"], inp["r"]
    fld = evolve(inp["sch"], inp["gauss"], None, PG(r, t))
    a = 0.5 - 1j * t[:, None]
    oracle = (2 * a) ** (-1.0) * np.exp(-(r[None, :] ** 2) / (4 * a))
    err_g = float(np.max(np.abs(fld.values - oracle)) / np.max(np.abs(oracle)))
    # (b) half-wave combination against the 3-D radial d'Alembert value
    sf, tw, rw = inp["sf"], inp["tw"], inp["rw"]
    ghat = inp["RadialProfile"](sf, inp["fourier_bessel"](inp["gprof"], sf.nodes), 3)
    plus = evolve(inp["wave"], ghat, None, PG(rw, tw))
    minus = evolve(inp["wave"], ghat, None, PG(rw, -tw[::-1]))
    cosv = (plus.values + minus.values[::-1]) / 2.0
    err_w = 0.0
    for i, ti in enumerate(tw):
        oracle_w = inp["oracle_w"](inp["g_phys"], float(ti), rw)
        num = np.sqrt(np.sum(np.abs(cosv[i] - oracle_w) ** 2 * rw**2))
        den = np.sqrt(np.sum(oracle_w**2 * rw**2))
        err_w = max(err_w, float(num / den))
    if inp["smoke"]:
        return [_finite_positive("complex-Gaussian error", err_g + 1e-300),
                _finite_positive("d'Alembert error", err_w + 1e-300)]
    return [Check("criterion 8a complex-Gaussian", err_g <= 1e-6, f"{err_g:.2e} <= 1e-6"),
            Check("criterion 8b d'Alembert", err_w <= 1e-5, f"{err_w:.2e} <= 1e-5")]


@dataclass(frozen=True)
class Workload:
    name: str
    checks: dict         # size -> output checks per pass
    prepare: object
    run: object
    seeded: bool = False  # inputs depend on the seed


# why each workload was chosen is recorded with its name in BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload("freq-sweep", {"criterion": 4, "bench": 4, "smoke": 3},
                 _prepare_freq, _run_freq),
        Workload("annulus-sweep", dict.fromkeys(_ANNULUS, 6), _prepare_annulus, _run_annulus),
        Workload("picard", {size: sum(cfg[:3]) for size, cfg in _PICARD.items()},
                 _prepare_picard, _run_picard, seeded=True),
        Workload("dense-oracle", dict.fromkeys(_DENSE, 2), _prepare_dense, _run_dense),
    )
}
