"""Command-line front end.

One subcommand per experiment; every run writes <outdir>/<run-id>/report.json,
data.csv and plot.dat.  Exit status: 0 on PASS or informational completion,
1 on a FAIL verdict, 2 on configuration errors.  A config file of `key = value`
lines can seed the selected subcommand's flags (flags win; any other key is an
error).  Rational exponents may be given as 'a/b' strings and are kept exact
where the arithmetic is exact.

Each flag is declared once, with its default and a parser that holds its
domain: numbers finite; n >= 2; T0, T, delta > 0; trials and samples
>= 1; refinements in 2..7; band and annulus indices (k, j) in -64..64;
ranges and lists non-empty; a list fitted by a slope has two or more strictly
monotone values, radii increasing and above 2; times increasing.  argparse
parses numbers; text values (exponents, ranges, lists, symbols, choices) keep
their raw text for report.json and are parsed once, by `validate`.  A
configuration error prints one JSON object on stderr and exits 2:
{"error": "invalid config", "violations": [...]} for values that fail to
parse or break a solver's range, else {"error": <type>, "detail": ...}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import admissibility as adm
from . import estimates as est
from .dispersion import get_symbol, verify_hypotheses
from .errors import ConfigError, RslError
from .nonlinear import (check_fnls_range, check_nls_range, check_nlw_range, fnls_experiment,
                        nls_small_data_experiment, nlw_small_data_experiment)
from .reports import RunReport, resolve_outdir


def _ints(txt: str) -> list:
    """'-3..3' -> [-3..3]; '4,5,6' -> [4,5,6]."""
    if ".." in txt:
        lo, hi = txt.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in txt.split(",")]


def _floats(txt: str) -> list:
    return [float(Fraction(x)) if "/" in x else float(x) for x in txt.split(",")]


def _increasing(v, lo=-math.inf) -> bool:
    return all(a < b for a, b in zip([lo, *v], [*v, math.inf]))  # lo < v0 < v1 < ... < inf


def _monotone(v) -> bool:
    return len(v) > 1 and (_increasing(v) or _increasing(v[::-1]))


def _check(parse: Callable, ok: Callable, rule: str) -> Callable:
    """`parse` restricted to the values that satisfy `ok`."""
    def checked(txt):
        val = parse(txt)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"must be {rule}")
        return val
    checked.__name__ = parse.__name__
    return checked


class _Text(str):
    """A text flag's raw value, kept for report.json, and its parser."""
    parse: Callable


def _text(parse: Callable) -> Callable:
    """Parser of a text flag: argparse keeps the text, `validate` parses it."""
    def keep(txt):
        val = _Text(txt)
        val.parse = parse
        return val
    return keep


def _one_of(*choices) -> Callable:
    return _text(_check(str, choices.__contains__, "one of " + ", ".join(choices)))


def _indices(v) -> bool:
    """Band and annulus indices lie in -64..64: 2^(k+-1), the windows
    T0 2^(-+4k) and the symbols at the band edges stay finite there."""
    return all(-64 <= k <= 64 for k in v)


DIM = _check(int, lambda n: n >= 2, ">= 2")
FINITE = _check(float, math.isfinite, "finite")
POSITIVE = _check(float, lambda x: 0 < x < math.inf, "finite and > 0")
COUNT = _check(int, lambda m: m >= 1, ">= 1")
INDEX = _check(int, lambda k: _indices([k]), "in -64..64")
EXPONENT = _text(adm.parse_exponent)
NORM_EXPONENT = _text(_check(adm.parse_exponent, lambda q: q >= 2, ">= 2"))
RATIONAL = _text(Fraction)
SYMBOL = _text(get_symbol)
INTS = _text(_check(_ints, len, "non-empty"))
INDICES = _text(_check(_ints, lambda v: len(v) and _indices(v), "non-empty and in -64..64"))
SLOPE = _text(_check(_ints, lambda v: _monotone(v) and _indices(v),
                     "two or more strictly monotone values in -64..64"))
RADII = _text(_check(_floats, lambda v: len(v) > 1 and _increasing(v, 2),
                     "two or more increasing radii in (2, inf)"))
DELTAS = _text(_check(_floats, lambda v: _monotone(v) and min(v) > 0,
                      "two or more strictly monotone values in (0, inf)"))
TIMES = _text(_check(_floats, _increasing, "finite and strictly increasing"))

_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class _Parser(argparse.ArgumentParser):
    """argparse whose errors raise ConfigError instead of exiting."""
    def error(self, message):
        raise ConfigError(message)


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
    a flag given on the command line, in any form, wins over them.  Its
    errors raise ConfigError."""
    config = config or {}
    ap = _Parser(prog="rsl", description=__doc__)
    ap.add_argument("--config", help="key = value file; flags override")
    ap.add_argument("--output", help="output directory (or RSL_OUTPUT_DIR)")
    ap.add_argument("--run-id", help="subdirectory name; default: <command>-<time>")
    ap.add_argument("--seed", type=_check(int, lambda s: s >= 0, ">= 0"), default=0)
    ap.add_argument("--validate-only", action="store_true",
                    help="report config violations without running")
    ap.set_defaults(**{k: v for k, v in config.items()
                       if k in ("output", "run_id", "seed", "validate_only")})
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        p = sub.add_parser(name)
        for fname, (default, parse) in flags.items():
            p.add_argument(f"--{fname}", default=default, type=parse)
        p.set_defaults(**{k: v for k, v in config.items() if k in flags})

    common = {"symbol": ("schrodinger", SYMBOL), "n": (2, DIM)}
    solver = {"delta": (1e-3, POSITIVE), "seeds": ("0..3", INTS), "T": (16.0, POSITIVE)}
    add("propagate", **common, k=(0, INDEX), t=("0,1,2", TIMES))
    add("split", **common, k=(0, INDEX), j=(4, INDEX), t=("0,1,2", TIMES))
    add("norm-sweep", **common, k=(0, INDEX), q=("4", NORM_EXPONENT), T0=(64.0, POSITIVE))
    add("fit-k", **common, q=("4", NORM_EXPONENT), k=("-3..3", SLOPE), T0=(64.0, POSITIVE))
    add("fit-j", **common, q=("4", NORM_EXPONENT), k=(0, INDEX), j=("3..8", SLOPE),
        regime=("outer_thm2", _one_of("inner", "outer_thm1", "outer_thm2")))
    add("smoothing", **common, k=(0, INDEX), q=("4", NORM_EXPONENT), trials=(8, COUNT))
    add("maximal", a=(2.0, FINITE), k=("2..6", SLOPE), samples=(768, COUNT))
    # each refinement level quadruples hls_bilinear_check's peak memory:
    # 6, 25, 97 and 386 MiB at 4..7 levels, so 8 would pass 1 GB
    add("hls", q=("10/3", EXPONENT), n=(2, DIM),
        refinements=(4, _check(int, lambda m: 2 <= m <= 7, "in 2..7")))
    add("counter-wave", n=(2, DIM), q=("4", EXPONENT), R=("16,32,64,128,256,512,1024", RADII))
    add("counter-schrodinger", n=(2, DIM), q=("3", EXPONENT), j=("4..8", SLOPE))
    add("knapp", sigma=(1.5, FINITE), q=("4", EXPONENT), r=("4", EXPONENT),
        deltas=("0.125,0.0625,0.03125,0.015625", DELTAS))
    add("l6", **common, k=("-2..2", SLOPE))
    add("retarded", **common, q=("10/3", NORM_EXPONENT), r=("10/3", NORM_EXPONENT),
        qt=("10/3", NORM_EXPONENT), rt=("10/3", NORM_EXPONENT), trials=(4, COUNT))
    add("admissible", family=("schrodinger", _one_of("schrodinger", "wave")), n=(2, DIM),
        q=("10/3", NORM_EXPONENT), r=("10/3", NORM_EXPONENT))
    add("thresholds", n=(2, DIM), p=(None, RATIONAL))
    add("constants", equation=("klein_gordon", _one_of("klein_gordon", "beam")),
        n=(2, DIM), q=("6", EXPONENT), k=(1, INDEX))
    add("pairs", equation=("nls", _one_of("nls", "nlw")), n=(2, DIM),
        s=("-1/10", RATIONAL), s_sch=(None, RATIONAL), theta=(None, RATIONAL))
    add("solve-nls", n=(2, DIM), s=("-1/10", RATIONAL), **solver)
    add("solve-nlw", n=(2, DIM), s=("3/10", RATIONAL), **solver)
    add("solve-fnls", n=(2, DIM), sigma=(1.5, FINITE), p=(1.5, FINITE), s=("0", RATIONAL),
        **solver)
    add("conjecture-probe", a=(2.0, FINITE), n=(2, DIM), R=("8,16,32,64,128", RADII),
        T=(256.0, POSITIVE))
    add("hypotheses", **common, k=("-8..8", INDICES))
    return ap


def validate(args) -> tuple[list, argparse.Namespace]:
    """All violations detectable before running anything, and the flags with
    each text value parsed."""
    bad = []
    values = argparse.Namespace(**vars(args))
    for name, val in vars(args).items():
        if isinstance(val, _Text):
            try:
                setattr(values, name, val.parse(val))
            except (ValueError, ZeroDivisionError, KeyError, RslError,
                    argparse.ArgumentTypeError) as exc:
                bad.append(f"cannot parse {name}={val!r}: {exc}")
    solver_range = {
        "solve-nls": lambda v: check_nls_range(v.n, v.s),
        "solve-nlw": lambda v: check_nlw_range(v.n, v.s),
        "solve-fnls": lambda v: check_fnls_range(v.n, v.sigma, v.p),
    }.get(args.command)
    if solver_range and not bad:
        try:
            solver_range(values)
        except RslError as exc:
            bad.append(f"{type(exc).__name__}: {exc}")
    return bad, values


def _verdict(ok) -> str:
    return "PASS" if ok else "FAIL"


def _slope(fit, ok, index="k", residual=False, plot=True, xs=None, column="log2_norm") -> tuple:
    """A fitted slope: one row per index (or per `xs`) and its log2 value,
    the (index, value) plot unless `plot` is false."""
    results = {"slope": fit.slope, "predicted": fit.predicted_slope}
    if residual:
        results["max_residual"] = fit.max_residual
    rows = [{index: x, column: val}
            for x, val in zip(fit.indices if xs is None else xs, fit.log_norms)]
    return (_verdict(ok), results, rows,
            list(zip(fit.indices, fit.log_norms)) if plot else None)


def _ratios(rep, **extra) -> tuple:
    """Bound ratios: one row per trial, PASS when the report's bound holds."""
    return (_verdict(rep.passed), {"max_ratio": rep.max_ratio, **extra},
            [{"trial": i, "ratio": r} for i, r in enumerate(rep.ratios)])


def _growth(rep, verdict, results) -> tuple:
    """A growth probe: one row per radius R, plotted against log2 R."""
    return (verdict, results,
            [{"R": R, "norm": val} for R, val in zip(rep.indices, rep.values)],
            list(zip(np.log2(rep.indices), rep.values)))


def _experiment(rep, ok, **extra) -> tuple:
    """A solver experiment: one row per seed run; the results carry the
    solver grid's shape (n_t, n_s, n_r), r_max and time panels
    (nonlinear.GRID_META)."""
    return (_verdict(ok),
            {"all_converged": rep.all_converged, "max_contraction": rep.max_contraction,
             **rep.grid, **extra},
            [dict(r) for r in rep.runs])


def _dispatch(cmd, v) -> tuple:
    """Runs `cmd` on the parsed flag values `v`: the verdict, results and
    optionally the rows, plot and field of its RunReport, in that order."""
    if cmd == "hypotheses":
        rep = verify_hypotheses(v.symbol, v.k)
        return (_verdict(rep.passed),
                {"symbol": v.symbol.name, "passed": rep.passed,
                 "dphi_reference": rep.dphi_reference},
                [{"k": o.k, "dphi_min": o.dphi_min, "dphi_max": o.dphi_max} for o in rep.octaves])
    if cmd == "fit-k":
        fit = est.fit_frequency_scaling(v.symbol, v.n, v.q, v.k, T0=v.T0)
        ok = fit.predicted_slope is not None and abs(fit.slope - fit.predicted_slope) <= 0.1
        return _slope(fit, ok and fit.reliable, residual=True)
    if cmd == "fit-j":
        fit = est.fit_annulus_scaling(v.symbol, v.n, v.q, v.k, v.j, v.regime)
        return _slope(fit, fit.passed_upper, index="j", residual=True)
    if cmd == "norm-sweep":
        # L^q_{t,x}: the r column repeats q
        q = float(v.q)
        res = est.measure_frequency_norms(v.symbol, v.n, [q], [v.k], T0=v.T0)[q][v.k]
        return ("INFO", {"norm": res.norm, "T": res.T, "converged": res.converged},
                [{"symbol": v.symbol.name, "n": v.n, "k": v.k, "j": "",
                  "q": q, "r": q, "T": res.T, "value": res.norm}])
    if cmd == "smoothing":
        rep = est.smoothing_lemma_check(v.symbol, v.k, float(v.q), v.trials, v.seed)
        return _ratios(rep, bound=rep.bound_constant)
    if cmd == "maximal":
        fit = est.maximal_check(v.a, v.k, v.samples)
        return _slope(fit, abs(fit.slope - fit.predicted_slope) <= 0.1)
    if cmd == "hls":
        rep = est.hls_bilinear_check(v.q, v.n, refinements=v.refinements)
        return _ratios(rep, stability=rep.meta["stability"])
    if cmd == "counter-wave":
        rep = est.counterexample_wave(v.n, v.q, v.R)
        ok = rep.diverges
        qc = 2.0 * v.n / (v.n - 1)
        if float(v.q) > qc + 1e-9:  # control: saturation expected
            ok = rep.saturated
        return _growth(rep, _verdict(ok), {"monotone": rep.monotone, "saturated": rep.saturated,
                                          "slope_vs_logR": rep.slope})
    if cmd == "counter-schrodinger":
        fit = est.counterexample_schrodinger(v.n, v.q, v.j)
        endpoint = abs(float(v.q) - (4 * v.n + 2) / (2 * v.n - 1)) < 1e-9
        if endpoint:
            ok = abs(fit.slope) <= 0.05
        else:
            ok = fit.slope >= fit.predicted_slope - 0.05 and fit.slope > 0
        return _slope(fit, ok, index="j")
    if cmd == "knapp":
        fit = est.knapp_fractional(v.sigma, v.deltas, float(v.q), float(v.r))
        return _slope(fit, abs(fit.slope - fit.predicted_slope) <= 0.1, index="delta",
                      xs=v.deltas, column="log2_ratio")
    if cmd == "l6":
        fit = est.strichartz_l6_check(v.symbol, v.k)
        return _slope(fit, fit.slope <= fit.predicted_slope + 0.1, plot=False)
    if cmd == "retarded":
        return _ratios(est.retarded_strichartz_check(v.symbol, v.n, (v.q, v.r), (v.qt, v.rt),
                                                     trials=v.trials, seed=v.seed))
    if cmd == "admissible":
        if v.family == "schrodinger":
            adm_v = adm.is_radial_schrodinger_admissible(v.n, v.q, v.r)
            return ("UNKNOWN" if adm_v.unknown else _verdict(adm_v.admissible),
                    {"admissible": adm_v.admissible, "boundary": adm_v.boundary,
                     "unknown": adm_v.unknown})
        adm_v = adm.is_radial_wave_admissible(v.n, v.q, v.r)
        return (_verdict(adm_v.admissible),
                {"admissible": adm_v.admissible, "exception_2_inf_3": adm_v.exception_2_inf_3})
    if cmd == "thresholds":
        th = adm.thresholds(v.n, v.p)
        return ("INFO", {
            "s0": th.s0,
            "s1": None if th.s1 is None else str(th.s1),
            "s2": None if th.s2 is None else str(th.s2),
            "s_sch": None if th.s_sch is None else str(th.s_sch),
        })
    if cmd == "constants":
        rate = adm.kg_beam_constants(v.equation, v.n, v.q, v.k)
        return "INFO", {"log2_rate_per_k": str(rate), "float": float(rate)}
    if cmd == "pairs":
        if v.equation == "nls":
            sel = adm.choose_pairs_nls(v.n, v.s, v.s if v.s_sch is None else v.s_sch)
        else:
            sel = adm.choose_pairs_nlw(v.n, v.s, theta=v.theta)
        return ("INFO", {"q": str(sel.q), "r": str(sel.r), "qt": str(sel.qt),
                         "rt": str(sel.rt), "p": str(sel.p), "case": sel.case})
    if cmd == "solve-nls":
        rep = nls_small_data_experiment(v.n, v.s, v.delta, v.seeds, T=v.T)
        return _experiment(rep, rep.all_converged and rep.max_contraction <= 0.5,
                           max_mass_drift=rep.max_mass_drift)
    if cmd == "solve-nlw":
        rep = nlw_small_data_experiment(v.n, v.s, v.delta, v.seeds, T=v.T)
        return _experiment(rep, rep.all_converged and rep.max_contraction <= 0.5,
                           case=rep.params["case"])
    if cmd == "solve-fnls":
        rep = fnls_experiment(v.n, v.sigma, v.p, float(v.s), v.delta, v.seeds, T=v.T)
        return _experiment(rep, rep.all_converged and rep.max_mass_drift <= 1e-4,
                           max_mass_drift=rep.max_mass_drift)
    if cmd == "conjecture-probe":
        rep = est.conjecture_probe(v.a, v.n, v.R, T=v.T)
        return _growth(rep, "INFO", {"slope_sq_vs_logR": rep.slope, "saturated": rep.saturated})
    if cmd == "propagate":
        from .fastfield import BandFieldSampler
        from .grids import PhysicalGrid
        from .propagator import SpaceTimeField
        from .transform import canonical_band_profile, project, radial_norm

        tv = np.asarray(v.t)
        if tv[0] > 0:
            tv = np.concatenate([[0.0], tv])
        # the norm engine's radius grid covers the packet's transport over
        # |t| <= max|t| and resolves band k
        datum = project(canonical_band_profile(v.n, v.k), v.k).fn
        sampler = BandFieldSampler(v.symbol, v.n, v.k, datum, float(np.max(np.abs(tv))))
        fld = SpaceTimeField(PhysicalGrid(sampler.r, tv),
                             np.stack([sampler.field_at(t) for t in tv]), v.n, source="fastfield")
        target = math.sqrt(sampler.mass_true)
        l2 = [float(radial_norm(row, sampler.measure, v.n, 2)) for row in fld.values]
        dev = max(abs(x - target) for x in l2) / target
        return (_verdict(dev <= 1e-3), {"unitarity_deviation": dev, "rmax": float(sampler.r[-1])},
                [{"t": float(t), "l2": x} for t, x in zip(tv, l2)], None,
                (fld, {"symbol": v.symbol.name, "k": v.k}))
    if cmd == "split":
        from .grids import PhysicalGrid
        from .propagator import evolve, main_error_split
        from .transform import canonical_band_profile

        prof = canonical_band_profile(v.n, v.k)
        r = np.linspace(2.0 ** (v.j - 1), 2.0**v.j, 400)
        grid = PhysicalGrid(r, np.asarray(v.t))
        m, e = main_error_split(v.symbol, prof, v.k, grid)
        f = evolve(v.symbol, prof, v.k, grid)
        err = float(np.max(np.abs(m.values + e.values - f.values)) / np.max(np.abs(f.values)))
        return _verdict(err <= 1e-6), {"reassembly_error": err}
    raise ConfigError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    t0 = time.time()
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            # argparse converts string defaults with each flag's own type
            config = read_config(args.config)
            args = build_parser(config).parse_args(argv)
            unknown = sorted(set(config) - (set(vars(args)) - {"command"}))
            if unknown:
                raise ConfigError(f"config keys {unknown} name no flag of {args.command!r}")
        violations, values = validate(args)
        if args.validate_only:
            _print_lines([json.dumps({"violations": violations}, indent=2)])
            return 2 if violations else 0
        if violations:
            print(json.dumps({"error": "invalid config", "violations": violations}),
                  file=sys.stderr)
            return 2
        cfg = {k: val for k, val in vars(args).items() if k not in ("config", "output", "run_id")}
        report = RunReport(args.command, cfg, *_dispatch(args.command, values))
    except RslError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2
    run_id = args.run_id or f"{args.command}-{int(t0)}"
    path = report.emit(resolve_outdir(args.output, run_id))
    _print_lines([f"[{report.verdict}] {args.command} ({time.time() - t0:.1f}s) -> {path}",
                  *(f"  {key}: {val}" for key, val in report.results.items())])
    return 0 if report.verdict in ("PASS", "INFO", "UNKNOWN") else 1


def _print_lines(lines) -> None:
    """Print result lines to stdout.  When the reader has closed the pipe
    (`rsl ... | head`), the rest is dropped without a traceback and the run
    keeps its own exit status."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now writes to devnull, so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
