"""Command-line front end.

One subcommand per experiment; every run writes <outdir>/<run-id>/report.json,
data.csv and plot.dat.  Exit status: 0 on PASS or informational completion,
1 on a FAIL verdict, 2 on configuration errors.  A config file of `key = value`
lines can seed the selected subcommand's flags (flags win; any other key is an
error).  Rational exponents may be
given as 'a/b' strings and are kept exact where the arithmetic is exact.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from typing import Optional

import numpy as np

from . import admissibility as adm
from . import estimates as est
from .dispersion import get_symbol, verify_hypotheses
from .errors import ConfigError, RslError
from .nonlinear import fnls_experiment, nls_small_data_experiment, nlw_small_data_experiment
from .reports import RunReport, resolve_outdir


def _parse_range(txt: str) -> list:
    """'-3..3' -> [-3..3]; '4,5,6' -> [4,5,6]."""
    if ".." in txt:
        lo, hi = txt.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in txt.split(",")]


def _parse_floats(txt: str) -> list:
    return [float(Fraction(x)) if "/" in x else float(x) for x in txt.split(",")]


def _q(txt):
    return adm.parse_exponent(txt)


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def read_config(path: str) -> dict:
    """`key = value` lines ('#' starts a comment) as a dict of strings;
    `validate_only` is parsed to a bool.  Raises ConfigError."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    out = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    if "validate_only" in out:
        flag = out["validate_only"].lower()
        if flag not in _BOOLEANS:
            raise ConfigError(f"validate_only must be true/false/yes/no/1/0, got {flag!r}")
        out["validate_only"] = _BOOLEANS[flag]
    return out


def build_parser(config: Optional[dict] = None) -> argparse.ArgumentParser:
    """The argument parser; `config` values become the flags' defaults, so
    a flag given on the command line, in any form, wins over them."""
    config = config or {}
    ap = argparse.ArgumentParser(prog="rsl", description=__doc__)
    ap.add_argument("--config", help="key = value file; flags override")
    ap.add_argument("--output", help="output directory (or RSL_OUTPUT_DIR)")
    ap.add_argument("--run-id", help="subdirectory name; default: <command>-<time>")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--validate-only", action="store_true",
                    help="report config violations without running")
    ap.set_defaults(**{k: v for k, v in config.items()
                       if k in ("output", "run_id", "seed", "validate_only")})
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        p = sub.add_parser(name)
        for fname, kw in flags.items():
            p.add_argument(f"--{fname}", **kw)
        p.set_defaults(**{k: v for k, v in config.items() if k in flags})
        return p

    common_symbol = {"symbol": dict(default="schrodinger"), "n": dict(type=int, default=2)}
    add("propagate", **common_symbol, k=dict(type=int, default=0),
        t=dict(default="0,1,2"), rmax=dict(type=float, default=40.0))
    add("split", **common_symbol, k=dict(type=int, default=0),
        j=dict(type=int, default=4), t=dict(default="0,1,2"))
    add("norm-sweep", **common_symbol, k=dict(type=int, default=0),
        q=dict(default="4"), r=dict(default=None), T0=dict(type=float, default=64.0))
    add("fit-k", **common_symbol, q=dict(default="4"), k=dict(default="-3..3"),
        T0=dict(type=float, default=64.0))
    add("fit-j", **common_symbol, q=dict(default="4"), k=dict(type=int, default=0),
        j=dict(default="3..8"), regime=dict(default="outer_thm2"))
    add("smoothing", **common_symbol, k=dict(type=int, default=0), q=dict(default="4"),
        trials=dict(type=int, default=8))
    add("maximal", a=dict(type=float, default=2.0), k=dict(default="2..6"),
        samples=dict(type=int, default=768))
    add("hls", q=dict(default="10/3"), n=dict(type=int, default=2),
        refinements=dict(type=int, default=4))
    add("counter-wave", n=dict(type=int, default=2), q=dict(default="4"),
        R=dict(default="16,32,64,128,256,512,1024"))
    add("counter-schrodinger", n=dict(type=int, default=2), q=dict(default="3"),
        j=dict(default="4..8"))
    add("knapp", sigma=dict(type=float, default=1.5), q=dict(default="4"),
        r=dict(default="4"), deltas=dict(default="0.125,0.0625,0.03125,0.015625"))
    add("l6", **common_symbol, k=dict(default="-2..2"))
    add("retarded", **common_symbol, q=dict(default="10/3"), r=dict(default="10/3"),
        qt=dict(default="10/3"), rt=dict(default="10/3"), trials=dict(type=int, default=4))
    add("admissible", family=dict(default="schrodinger"), n=dict(type=int, default=2),
        q=dict(default="10/3"), r=dict(default="10/3"))
    add("thresholds", n=dict(type=int, default=2), p=dict(default=None))
    add("constants", equation=dict(default="klein_gordon"), n=dict(type=int, default=2),
        q=dict(default="6"), k=dict(type=int, default=1))
    add("pairs", equation=dict(default="nls"), n=dict(type=int, default=2),
        s=dict(default="-1/10"), s_sch=dict(default=None), theta=dict(default=None))
    add("solve-nls", n=dict(type=int, default=2), s=dict(default="-1/10"),
        delta=dict(type=float, default=1e-3), seeds=dict(default="0..3"),
        T=dict(type=float, default=16.0))
    add("solve-nlw", n=dict(type=int, default=2), s=dict(default="3/10"),
        delta=dict(type=float, default=1e-3), seeds=dict(default="0..3"),
        T=dict(type=float, default=16.0))
    add("solve-fnls", n=dict(type=int, default=2), sigma=dict(type=float, default=1.5),
        p=dict(type=float, default=1.5), s=dict(default="0"),
        delta=dict(type=float, default=1e-3), seeds=dict(default="0..3"),
        T=dict(type=float, default=16.0))
    add("conjecture-probe", a=dict(type=float, default=2.0), n=dict(type=int, default=2),
        R=dict(default="8,16,32,64,128"), T=dict(type=float, default=256.0))
    add("hypotheses", **common_symbol, k=dict(default="-8..8"))
    return ap


# string-valued flags and the parser each must pass before a run
_VALUE_PARSERS = {
    "k": _parse_range, "j": _parse_range, "seeds": _parse_range,
    "t": _parse_floats, "R": _parse_floats, "deltas": _parse_floats,
    "s": Fraction, "s_sch": Fraction, "theta": Fraction, "p": Fraction, "symbol": get_symbol,
    "q": _q, "r": _q, "qt": _q, "rt": _q,
}

# choice-valued flags of each subcommand
_CHOICES = {
    ("admissible", "family"): ("schrodinger", "wave"),
    ("fit-j", "regime"): ("inner", "outer_thm1", "outer_thm2"),
    ("constants", "equation"): ("klein_gordon", "beam"),
    ("pairs", "equation"): ("nls", "nlw"),
}


def validate(args) -> list:
    """All violations detectable before running anything."""
    cmd = args.command
    bad = []
    parsed = {}
    for attr, parse in _VALUE_PARSERS.items():
        val = getattr(args, attr, None)
        if isinstance(val, str):
            try:
                parsed[attr] = parse(val)
            except (ValueError, ZeroDivisionError, KeyError, RslError):
                bad.append(f"cannot parse {attr}={val!r}")
    for (command, attr), choices in _CHOICES.items():
        if cmd == command and getattr(args, attr) not in choices:
            bad.append(f"{attr}={getattr(args, attr)!r} must be one of {', '.join(choices)}")
    if cmd == "solve-fnls":
        n = args.n
        if not (2.0 * n / (2.0 * n - 1.0) <= args.sigma < 2.0):
            bad.append(f"OutOfRangeSigma: sigma={args.sigma} outside [2n/(2n-1), 2)")
        if args.p < 2.0 * args.sigma / n - 1e-12:
            bad.append(f"OutOfRangeSigma: p={args.p} below mass-critical 2 sigma/n")
    if cmd == "solve-nls" and "s" in parsed:
        s = float(parsed["s"])
        n = args.n
        if not ((1 - n) / (2 * n + 1) <= s < 0):
            bad.append(f"OutOfRangeS: s={s} outside [(1-n)/(2n+1), 0)")
    if cmd == "solve-nlw" and "s" in parsed:
        s = float(parsed["s"])
        if not (adm.s0(args.n) < s < 0.5):
            bad.append(f"OutOfRangeS: s_w={s} outside (s0(n), 1/2)")
    if cmd in ("fit-k", "fit-j", "norm-sweep", "retarded", "admissible", "smoothing"):
        for attr in ("q", "r", "qt", "rt"):
            val = parsed.get(attr)
            if val is not None and val != math.inf and val < 2:
                bad.append(f"exponent {attr}={val} must be >= 2 here")
    return bad


def _dispatch(args) -> RunReport:
    cmd = args.command
    cfg = {k: v for k, v in vars(args).items() if k not in ("config", "output", "run_id")}
    if cmd == "hypotheses":
        sym = get_symbol(args.symbol)
        rep = verify_hypotheses(sym, _parse_range(args.k))
        return RunReport(cmd, cfg, "PASS" if rep.passed else "FAIL",
                         {"symbol": sym.name, "passed": rep.passed,
                          "dphi_reference": rep.dphi_reference},
                         rows=[{"k": o.k, "dphi_min": o.dphi_min, "dphi_max": o.dphi_max}
                               for o in rep.octaves])
    if cmd == "fit-k":
        sym = get_symbol(args.symbol)
        fit = est.fit_frequency_scaling(sym, args.n, _q(args.q), _parse_range(args.k),
                                        T0=args.T0)
        ok = fit.predicted_slope is not None and abs(fit.slope - fit.predicted_slope) <= 0.1
        rows = [{"k": k, "log2_norm": v} for k, v in zip(fit.indices, fit.log_norms)]
        return RunReport(cmd, cfg, "PASS" if ok and fit.reliable else "FAIL",
                         {"slope": fit.slope, "predicted": fit.predicted_slope,
                          "max_residual": fit.max_residual}, rows,
                         plot=list(zip(fit.indices, fit.log_norms)))
    if cmd == "fit-j":
        sym = get_symbol(args.symbol)
        fit = est.fit_annulus_scaling(sym, args.n, _q(args.q), args.k,
                                      _parse_range(args.j), args.regime)
        rows = [{"j": j, "log2_norm": v} for j, v in zip(fit.indices, fit.log_norms)]
        return RunReport(cmd, cfg, "PASS" if fit.passed_upper else "FAIL",
                         {"slope": fit.slope, "predicted": fit.predicted_slope,
                          "max_residual": fit.max_residual}, rows,
                         plot=list(zip(fit.indices, fit.log_norms)))
    if cmd == "norm-sweep":
        sym = get_symbol(args.symbol)
        q = float(_q(args.q))
        r = float(_q(args.r)) if args.r else q
        norms = est.measure_frequency_norms(sym, args.n, [q], [args.k], T0=args.T0)
        res = norms[q][args.k]
        return RunReport(cmd, cfg, "INFO",
                         {"norm": res.norm, "T": res.T, "converged": res.converged},
                         rows=[{"symbol": sym.name, "n": args.n, "k": args.k, "j": "",
                                "q": q, "r": r, "T": res.T, "value": res.norm}])
    if cmd == "smoothing":
        sym = get_symbol(args.symbol)
        rep = est.smoothing_lemma_check(sym, args.k, float(_q(args.q)), args.trials, args.seed)
        return RunReport(cmd, cfg, "PASS" if rep.passed else "FAIL",
                         {"max_ratio": rep.max_ratio, "bound": rep.bound_constant},
                         rows=[{"trial": i, "ratio": r} for i, r in enumerate(rep.ratios)])
    if cmd == "maximal":
        fit = est.maximal_check(args.a, _parse_range(args.k), args.samples)
        ok = abs(fit.slope - fit.predicted_slope) <= 0.1
        return RunReport(cmd, cfg, "PASS" if ok else "FAIL",
                         {"slope": fit.slope, "predicted": fit.predicted_slope},
                         rows=[{"k": k, "log2_norm": v} for k, v in zip(fit.indices, fit.log_norms)],
                         plot=list(zip(fit.indices, fit.log_norms)))
    if cmd == "hls":
        rep = est.hls_bilinear_check(_q(args.q), args.n, refinements=args.refinements)
        return RunReport(cmd, cfg, "PASS" if rep.passed else "FAIL",
                         {"max_ratio": rep.max_ratio, "stability": rep.meta["stability"]},
                         rows=[{"trial": i, "ratio": r} for i, r in enumerate(rep.ratios)])
    if cmd == "counter-wave":
        rep = est.counterexample_wave(args.n, _q(args.q), _parse_floats(args.R))
        verdict = "PASS" if rep.diverges else "FAIL"
        qc = 2.0 * args.n / (args.n - 1)
        if float(_q(args.q)) > qc + 1e-9:  # control: saturation expected
            verdict = "PASS" if rep.saturated else "FAIL"
        return RunReport(cmd, cfg, verdict,
                         {"monotone": rep.monotone, "saturated": rep.saturated,
                          "slope_vs_logR": rep.slope},
                         rows=[{"R": R, "norm": v} for R, v in zip(rep.indices, rep.values)],
                         plot=list(zip(np.log2(rep.indices), rep.values)))
    if cmd == "counter-schrodinger":
        fit = est.counterexample_schrodinger(args.n, _q(args.q), _parse_range(args.j))
        q = float(_q(args.q))
        endpoint = abs(q - (4 * args.n + 2) / (2 * args.n - 1)) < 1e-9
        if endpoint:
            ok = abs(fit.slope) <= 0.05
        else:
            ok = fit.slope >= fit.predicted_slope - 0.05 and fit.slope > 0
        return RunReport(cmd, cfg, "PASS" if ok else "FAIL",
                         {"slope": fit.slope, "predicted": fit.predicted_slope},
                         rows=[{"j": j, "log2_norm": v} for j, v in zip(fit.indices, fit.log_norms)],
                         plot=list(zip(fit.indices, fit.log_norms)))
    if cmd == "knapp":
        rep = est.knapp_fractional(args.sigma, _parse_floats(args.deltas),
                                   float(_q(args.q)), float(_q(args.r)))
        ok = abs(rep.slope - rep.predicted_slope) <= 0.1
        return RunReport(cmd, cfg, "PASS" if ok else "FAIL",
                         {"slope": rep.slope, "predicted": rep.predicted_slope},
                         rows=[{"delta": d, "log2_ratio": v}
                               for d, v in zip(rep.indices, rep.values)],
                         plot=list(zip(np.log2(rep.indices), rep.values)))
    if cmd == "l6":
        sym = get_symbol(args.symbol)
        fit = est.strichartz_l6_check(sym, _parse_range(args.k))
        ok = fit.slope <= fit.predicted_slope + 0.1
        return RunReport(cmd, cfg, "PASS" if ok else "FAIL",
                         {"slope": fit.slope, "predicted": fit.predicted_slope},
                         rows=[{"k": k, "log2_norm": v} for k, v in zip(fit.indices, fit.log_norms)])
    if cmd == "retarded":
        sym = get_symbol(args.symbol)
        rep = est.retarded_strichartz_check(sym, args.n, (_q(args.q), _q(args.r)),
                                            (_q(args.qt), _q(args.rt)),
                                            trials=args.trials, seed=args.seed)
        return RunReport(cmd, cfg, "PASS" if rep.passed else "FAIL",
                         {"max_ratio": rep.max_ratio},
                         rows=[{"trial": i, "ratio": r} for i, r in enumerate(rep.ratios)])
    if cmd == "admissible":
        q, r = _q(args.q), _q(args.r)
        if args.family == "schrodinger":
            v = adm.is_radial_schrodinger_admissible(args.n, q, r)
            verdict = "UNKNOWN" if v.unknown else ("PASS" if v.admissible else "FAIL")
            res = {"admissible": v.admissible, "boundary": v.boundary, "unknown": v.unknown}
        else:
            v = adm.is_radial_wave_admissible(args.n, q, r)
            verdict = "PASS" if v.admissible else "FAIL"
            res = {"admissible": v.admissible, "exception_2_inf_3": v.exception_2_inf_3}
        return RunReport(cmd, cfg, verdict, res)
    if cmd == "thresholds":
        th = adm.thresholds(args.n, args.p)
        return RunReport(cmd, cfg, "INFO", {
            "s0": th.s0,
            "s1": None if th.s1 is None else str(th.s1),
            "s2": None if th.s2 is None else str(th.s2),
            "s_sch": None if th.s_sch is None else str(th.s_sch),
        })
    if cmd == "constants":
        rate = adm.kg_beam_constants(args.equation, args.n, _q(args.q), args.k)
        return RunReport(cmd, cfg, "INFO", {"log2_rate_per_k": str(rate), "float": float(rate)})
    if cmd == "pairs":
        if args.equation == "nls":
            s_sch = _q(args.s_sch) if args.s_sch else _q(args.s)
            sel = adm.choose_pairs_nls(args.n, _q(args.s), s_sch)
        else:
            sel = adm.choose_pairs_nlw(args.n, _q(args.s),
                                       theta=_q(args.theta) if args.theta else None)
        return RunReport(cmd, cfg, "INFO", {
            "q": str(sel.q), "r": str(sel.r), "qt": str(sel.qt), "rt": str(sel.rt),
            "p": str(sel.p), "case": sel.case,
        })
    if cmd == "solve-nls":
        rep = nls_small_data_experiment(args.n, Fraction(args.s), args.delta,
                                        _parse_range(args.seeds), T=args.T)
        ok = rep.all_converged and rep.max_contraction <= 0.5
        return RunReport(cmd, cfg, "PASS" if ok else "FAIL", {
            "all_converged": rep.all_converged,
            "max_contraction": rep.max_contraction,
            "max_mass_drift": rep.max_mass_drift,
        }, rows=[dict(r) for r in rep.runs])
    if cmd == "solve-nlw":
        rep = nlw_small_data_experiment(args.n, Fraction(args.s), args.delta,
                                        _parse_range(args.seeds), T=args.T)
        ok = rep.all_converged and rep.max_contraction <= 0.5
        return RunReport(cmd, cfg, "PASS" if ok else "FAIL", {
            "all_converged": rep.all_converged,
            "max_contraction": rep.max_contraction,
            "case": rep.params["case"],
        }, rows=[dict(r) for r in rep.runs])
    if cmd == "solve-fnls":
        rep = fnls_experiment(args.n, args.sigma, args.p, float(Fraction(args.s)),
                              args.delta, _parse_range(args.seeds), T=args.T)
        ok = rep.all_converged and rep.max_mass_drift <= 1e-4
        return RunReport(cmd, cfg, "PASS" if ok else "FAIL", {
            "all_converged": rep.all_converged,
            "max_contraction": rep.max_contraction,
            "max_mass_drift": rep.max_mass_drift,
        }, rows=[dict(r) for r in rep.runs])
    if cmd == "conjecture-probe":
        rep = est.conjecture_probe(args.a, args.n, _parse_floats(args.R), T=args.T)
        return RunReport(cmd, cfg, "INFO",
                         {"slope_sq_vs_logR": rep.slope, "saturated": rep.saturated},
                         rows=[{"R": R, "norm": v} for R, v in zip(rep.indices, rep.values)],
                         plot=list(zip(np.log2(rep.indices), rep.values)))
    if cmd == "propagate":
        from .grids import PhysicalGrid
        from .propagator import evolve, field_to_csv
        from .transform import canonical_band_profile, l2_norm, project

        sym = get_symbol(args.symbol)
        prof = canonical_band_profile(args.n, args.k)
        tv = np.asarray(_parse_floats(args.t))
        if tv[0] > 0:
            tv = np.concatenate([[0.0], tv])
        r = np.linspace(1e-6, args.rmax, 1200)
        fld = evolve(sym, prof, args.k, PhysicalGrid(r, tv))
        target = l2_norm(project(prof, args.k))
        dev = max(abs(fld.l2_slice(i) - target) / target for i in range(tv.size))
        rows = [{"t": float(t), "l2": fld.l2_slice(i)} for i, t in enumerate(tv)]
        rep = RunReport(cmd, cfg, "PASS" if dev <= 1e-3 else "FAIL",
                        {"unitarity_deviation": dev}, rows)
        rep.field = (fld, {"symbol": sym.name, "k": args.k})
        return rep
    if cmd == "split":
        from .grids import PhysicalGrid
        from .propagator import evolve, main_error_split
        from .transform import canonical_band_profile

        sym = get_symbol(args.symbol)
        prof = canonical_band_profile(args.n, args.k)
        tv = np.asarray(_parse_floats(args.t))
        r = np.linspace(2.0 ** (args.j - 1), 2.0**args.j, 400)
        grid = PhysicalGrid(r, tv)
        m, e = main_error_split(sym, prof, args.k, grid)
        f = evolve(sym, prof, args.k, grid)
        err = float(np.max(np.abs(m.values + e.values - f.values)) / np.max(np.abs(f.values)))
        return RunReport(cmd, cfg, "PASS" if err <= 1e-6 else "FAIL",
                         {"reassembly_error": err})
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.config:
            # argparse converts string defaults with each flag's own type
            config = read_config(args.config)
            args = build_parser(config).parse_args(argv)
            unknown = sorted(set(config) - (set(vars(args)) - {"command"}))
            if unknown:
                raise ConfigError(f"config keys {unknown} name no flag of {args.command!r}")
        violations = validate(args)
        if args.validate_only:
            print(json.dumps({"violations": violations}, indent=2))
            return 2 if violations else 0
        if violations:
            print(json.dumps({"error": "invalid config", "violations": violations}),
                  file=sys.stderr)
            return 2
        report = _dispatch(args)
    except RslError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2
    run_id = args.run_id or f"{args.command}-{int(t0)}"
    outdir = resolve_outdir(args.output, run_id)
    path = report.emit(outdir)
    if hasattr(report, "field"):
        from .propagator import field_to_csv

        fld, meta = report.field
        field_to_csv(fld, outdir / "field.csv", outdir / "field.json", meta)
    print(f"[{report.verdict}] {args.command} ({time.time() - t0:.1f}s) -> {path}")
    for key, val in report.results.items():
        print(f"  {key}: {val}")
    return 0 if report.verdict in ("PASS", "INFO", "UNKNOWN") else 1


if __name__ == "__main__":
    sys.exit(main())
