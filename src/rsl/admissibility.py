"""Exact arithmetic for admissible exponent pairs, gap conditions, critical
regularities, and the pair-selection recipes behind the fixed-point solvers.

Membership and gap checks run in exact rational arithmetic (fractions) when
inputs are rational; q = infinity is supported throughout via 1/q = 0.  The
only floating comparisons are against the irrational thresholds s0(n), made
with a documented 1e-12 tolerance.

Region conventions (dimension n >= 2, both exponents >= 2):

  radial Schrodinger family:
      closed branch   q >= Q_n := (4n+2)/(2n-1) with 2/q + (2n-1)/r <= n - 1/2,
      strict branch   2 <= q < Q_n         with 2/q + (2n-1)/r <  n - 1/2.
  Pairs with equality and 2 <= q < Q_n form the segment whose status is an
  open question; membership queries on it return verdict "unknown".

  radial wave family:
      n = 2:   {1/q + 1/r < 1/2, q > 4}  union  {(4, inf), (inf, 2)},
      n >= 3:  {q >= 2, 1/q + (n-1)/r < (n-1)/2}  union  {(inf, 2)}.
  The retarded-estimate exceptional triples (2, inf, 2) / (2, inf, 3) are
  surfaced as flags, not baked into the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    AdmissibilityViolation,
    NoPairAvailable,
    OutOfRangeQ,
    OutOfRangeS,
)

INF = math.inf
Exponent = Union[Fraction, float]

_S0_TOL = 1e-12


def parse_exponent(x) -> Exponent:
    """Accept Fraction, int, 'a/b' strings, 'inf', or floats (converted
    exactly to their binary rational)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        if x.strip().lower() in ("inf", "infinity", "oo"):
            return INF
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isinf(x):
            return INF
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot interpret exponent {x!r}")


def inv(x: Exponent) -> Fraction:
    if x == INF:
        return Fraction(0)
    return Fraction(1) / Fraction(x)


def dual(x: Exponent) -> Exponent:
    """Holder dual: 1/x + 1/x' = 1."""
    ix = inv(x)
    if ix == 0:
        return Fraction(1)
    if ix == 1:
        return INF
    return 1 / (1 - ix)


def q_threshold(n: int) -> Fraction:
    """(4n+2)/(2n-1), the split between the closed and strict branches."""
    return Fraction(4 * n + 2, 2 * n - 1)


@dataclass(frozen=True)
class SchrodingerVerdict:
    admissible: bool
    boundary: bool
    unknown: bool
    exception_2_inf_2: bool


def is_radial_schrodinger_admissible(n: int, q, r) -> SchrodingerVerdict:
    if n < 2:
        raise ValueError("n >= 2 required")
    q, r = parse_exponent(q), parse_exponent(r)
    iq, ir = inv(q), inv(r)
    if iq > Fraction(1, 2) or ir > Fraction(1, 2):
        return SchrodingerVerdict(False, False, False, False)
    lhs = 2 * iq + (2 * n - 1) * ir
    rhs = Fraction(2 * n - 1, 2)
    on_line = lhs == rhs
    qn = q_threshold(n)
    closed_branch = iq <= inv(qn)  # q >= Q_n
    exc = (q == 2 and r == INF and n == 2)
    if closed_branch:
        return SchrodingerVerdict(lhs <= rhs, on_line, False, exc)
    if on_line:
        return SchrodingerVerdict(False, True, True, exc)
    return SchrodingerVerdict(lhs < rhs, False, False, exc)


@dataclass(frozen=True)
class WaveVerdict:
    admissible: bool
    exception_2_inf_3: bool


def is_radial_wave_admissible(n: int, q, r) -> WaveVerdict:
    if n < 2:
        raise ValueError("n >= 2 required")
    q, r = parse_exponent(q), parse_exponent(r)
    iq, ir = inv(q), inv(r)
    exc = (q == 2 and r == INF and n == 3)
    if iq > Fraction(1, 2) or ir > Fraction(1, 2):
        return WaveVerdict(False, exc)
    if n == 2:
        member = (iq + ir < Fraction(1, 2) and iq < Fraction(1, 4)) or (q, r) in (
            (Fraction(4), INF),
            (INF, Fraction(2)),
        )
        return WaveVerdict(member, exc)
    member = (iq + (n - 1) * ir < Fraction(n - 1, 2)) or (q == INF and r == 2)
    return WaveVerdict(member, exc)


def gap_condition(equation: str, n: int, q, r, gamma, sigma=None) -> bool:
    """Exact check of c/q + n/r = n/2 - gamma with c = 2 (schrodinger),
    1 (wave), sigma (fractional)."""
    q, r = parse_exponent(q), parse_exponent(r)
    gamma = parse_exponent(gamma) if gamma != INF else gamma
    if equation == "schrodinger":
        c = Fraction(2)
    elif equation == "wave":
        c = Fraction(1)
    elif equation == "fractional":
        if sigma is None:
            raise ValueError("fractional gap needs sigma")
        c = parse_exponent(sigma)
    else:
        raise ValueError(f"unknown equation {equation!r}")
    return c * inv(q) + n * inv(r) == Fraction(n, 2) - Fraction(gamma)


def s0(n: int) -> float:
    """Radial critical-regularity threshold for the wave fixed point."""
    if n == 2:
        return (5.0 - math.sqrt(17.0)) / 4.0
    if n == 3:
        return (12.0 - math.sqrt(129.0)) / 6.0
    if n >= 4:
        disc = n**4 + 6 * n**3 - n**2 - 14 * n + 9
        return (n**2 + 3 * n - 3 - math.sqrt(disc)) / (4.0 * n - 4.0)
    raise ValueError("n >= 2 required")


def s1(n: int, p) -> Fraction:
    """Regularity threshold for large-data local theory below the scattering
    range; breakpoint at p = 2/n."""
    p = Fraction(parse_exponent(p))
    hi = Fraction(8 * n + 4, 2 * n**2 + 3 * n - 2)
    if Fraction(2, n) <= p < hi:
        return Fraction(1 - n, 2 * n + 1)
    if p <= Fraction(2, n):
        return Fraction(n * p - n**2 * p, 1) / Fraction(2 * (-1 + 2 * n + n * p), 1)
    raise OutOfRangeS(f"p={p} above the threshold formula's range {hi}")


def s2(n: int, p) -> Fraction:
    """n >= 4 wave threshold (np-3)/(2np+2n-2)."""
    if n < 4:
        raise ValueError("s2 formula applies for n >= 4")
    p = Fraction(parse_exponent(p))
    return Fraction(n * p - 3, 1) / Fraction(2 * n * p + 2 * n - 2, 1)


@dataclass(frozen=True)
class CriticalExponents:
    s_sch: Optional[Fraction]
    s_w: Optional[Fraction]
    s_c: Optional[Fraction]
    s0: float
    s1: Optional[Fraction]
    s2: Optional[Fraction]
    inputs: tuple


def thresholds(n: int, p=None, sigma=None) -> CriticalExponents:
    """Scaling regularities and fixed-point thresholds for dimension n.

    With p given, the scaling indices n/2 - 2/p (and n/2 - sigma/p when
    sigma is given) and the p-dependent thresholds are attached.
    """
    s_sch = s_w = s_c = s1_v = s2_v = None
    if p is not None:
        p_f = Fraction(parse_exponent(p))
        s_sch = Fraction(n, 2) - 2 / p_f
        s_w = Fraction(n, 2) - 2 / p_f
        if sigma is not None:
            s_c = Fraction(n, 2) - Fraction(parse_exponent(sigma)) / p_f
        try:
            s1_v = s1(n, p_f)
        except OutOfRangeS:
            s1_v = None
        s2_v = s2(n, p_f) if n >= 4 else None
    return CriticalExponents(s_sch, s_w, s_c, s0(n), s1_v, s2_v, (n, p, sigma))


def kg_beam_constants(equation: str, n: int, q, k: int) -> Fraction:
    """Per-unit-k base-2 exponent of the frequency-localized space-time bound
    for the massive symbols (branch selected by the sign of k and by q)."""
    q = parse_exponent(q)
    iq = inv(q)
    qn_inv = inv(q_threshold(n))
    if iq > qn_inv:
        raise OutOfRangeQ(f"q={q} below the validity threshold {q_threshold(n)}")
    if equation == "klein_gordon":
        if k < 0:
            return Fraction(n, 2) - (n + 2) * iq
        wave_edge = Fraction(2 * n, n - 1)
        if iq < inv(wave_edge):  # q > 2n/(n-1)
            return Fraction(n, 2) - (n + 1) * iq
        return Fraction(n, 2) - (n + 1) * iq + (Fraction(1, 2) - iq)
    if equation == "beam":
        if k < 0:
            return Fraction(n, 2) - (n + 4) * iq
        return Fraction(n, 2) - (n + 2) * iq
    raise ValueError(f"unknown equation {equation!r}")


def figure_vertices(n: int) -> dict:
    """The marked boundary pairs (q, r) of the radial Schrodinger region:
    B' = (2, 2n/(n-2)), C' = (2, (4n-2)/(2n-3)), D' = (Q_n, Q_n)."""
    qn = q_threshold(n)
    b_r = INF if n == 2 else Fraction(2 * n, n - 2)
    return {
        "B'": (Fraction(2), b_r),
        "C'": (Fraction(2), Fraction(4 * n - 2, 2 * n - 3)),
        "D'": (qn, qn),
    }


@dataclass(frozen=True)
class PairSelection:
    q: Exponent
    r: Exponent
    qt: Exponent
    rt: Exponent
    p: Fraction
    gamma: Fraction
    case: str


def _check_wave_system(n: int, sel: PairSelection, s_w: Fraction) -> None:
    if not is_radial_wave_admissible(n, sel.q, sel.r).admissible:
        raise AdmissibilityViolation(f"(q,r)={sel.q, sel.r} not wave-admissible (case {sel.case})")
    if not is_radial_wave_admissible(n, sel.qt, sel.rt).admissible:
        raise AdmissibilityViolation(f"(qt,rt)={sel.qt, sel.rt} not wave-admissible (case {sel.case})")
    if not gap_condition("wave", n, sel.q, sel.r, s_w):
        raise AdmissibilityViolation("primary gap condition failed")
    # dual gap: 1/qt + n/rt = n/2 - 1 + s_w, i.e. gamma_t = 1 - s_w
    if not gap_condition("wave", n, sel.qt, sel.rt, 1 - Fraction(s_w)):
        raise AdmissibilityViolation("dual gap condition failed")
    if (sel.p + 1) * dual(sel.rt) != sel.r or (sel.p + 1) * dual(sel.qt) != sel.q:
        raise AdmissibilityViolation("nonlinear closure relations failed")


def choose_pairs_nlw(n: int, s_w, theta=None) -> PairSelection:
    """Exponent pairs closing the small-data wave fixed point at regularity
    s_w (radial).  Case split: symmetric pairs for s_w > 1/(2n), otherwise
    the dimension-specific recipes (n = 3 carries a free small parameter
    theta, shrunk automatically until the region constraints hold)."""
    s_w = Fraction(parse_exponent(s_w))
    if not (s0(n) + _S0_TOL < float(s_w) < 0.5):
        raise NoPairAvailable(f"s_w={float(s_w):.4f} outside (s0({n}), 1/2)")
    p = 4 / (n - 2 * s_w)
    if s_w > Fraction(1, 2 * n):
        q = Fraction(2 * n + 2) / (n - 2 * s_w)
        qt = Fraction(2 * n + 2) / (n + 2 * s_w - 2)
        sel = PairSelection(q, q, qt, qt, p, s_w, "1")
    elif n == 2:
        q = (3 - s_w) / (1 - s_w) ** 2
        r = (3 - s_w) / (1 - s_w)
        sel = PairSelection(q, r, 1 / s_w, INF, p, s_w, "2a")
    elif n == 3:
        th = Fraction(theta) if theta is not None else min(
            Fraction(1, 100), Fraction(float(s_w) - s0(3)).limit_denominator(10**9) / 10
        )
        for _ in range(64):
            iq = 2 * s_w - 3 * th
            ir = Fraction(1, 2) - s_w + th
            if iq > 0 and ir > 0:
                q, r = 1 / iq, 1 / ir
                if q > p + 1 and r > p + 1:
                    qt = q / (q - p - 1)
                    rt = r / (r - p - 1)
                    sel = PairSelection(q, r, qt, rt, p, s_w, "2b")
                    try:
                        _check_wave_system(n, sel, s_w)
                        return sel
                    except AdmissibilityViolation:
                        pass
            th = th / 2
        raise NoPairAvailable(f"no admissible theta found for s_w={s_w} (n=3)")
    else:
        q = Fraction(2 * n + 8 - 4 * s_w, 1) / (n - 2 * s_w)
        r = Fraction(2 * n**2 + 8 * n - 4 * n * s_w, 1) / (
            n**2 + 3 * n - 4 * n * s_w + 4 * s_w**2 - 6 * s_w
        )
        rt = Fraction(2 * n, 1) / (n + 2 * s_w - 3)
        sel = PairSelection(q, r, Fraction(2), rt, p, s_w, "2c")
    _check_wave_system(n, sel, s_w)
    return sel


def choose_pairs_nls(n: int, s, s_sch) -> PairSelection:
    """Exponent pairs for the radial semilinear Schrodinger fixed point below
    L^2: the symmetric scattering pairs at s = s_sch, the asymmetric local
    recipe for s_sch < s < 0."""
    s = Fraction(parse_exponent(s))
    s_sch = Fraction(parse_exponent(s_sch))
    lo = Fraction(1 - n, 2 * n + 1)
    if not (lo <= s_sch <= s < 0):
        raise OutOfRangeS(
            f"need (1-n)/(2n+1) <= s_sch <= s < 0, got s_sch={s_sch}, s={s}"
        )
    p = 4 / (n - 2 * s_sch)
    if s == s_sch:
        q = Fraction(2 * (n + 2), 1) / (n - 2 * s_sch)
        qt = Fraction(2 * (n + 2), 1) / (n + 2 * s_sch)
        sel = PairSelection(q, q, qt, qt, p, s_sch, "scattering")
        gamma = s_sch
    else:
        q = Fraction(2 * (n + 2), 1) / (n - 2 * s)
        iqt = Fraction(n + 2 * s, 2 * n + 4) - 2 * n * (s - s_sch) / ((n + 2) * (n - 2 * s_sch))
        irt = Fraction(n + 2 * s, 2 * n + 4) + 4 * (s - s_sch) / ((n + 2) * (n - 2 * s_sch))
        sel = PairSelection(q, q, 1 / iqt, 1 / irt, p, s, "lwp")
        gamma = s
    for pair in ((sel.q, sel.r), (sel.qt, sel.rt)):
        if not is_radial_schrodinger_admissible(n, *pair).admissible:
            raise AdmissibilityViolation(f"pair {pair} not Schrodinger-admissible")
    if not gap_condition("schrodinger", n, sel.q, sel.r, gamma):
        raise AdmissibilityViolation("primary gap condition failed")
    if not gap_condition("schrodinger", n, sel.qt, sel.rt, -gamma):
        raise AdmissibilityViolation("dual gap condition failed")
    if (p + 1) * dual(sel.rt) != sel.q:
        raise AdmissibilityViolation("nonlinear closure relation (p+1) rt' = q failed")
    return sel
