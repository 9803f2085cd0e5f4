"""Dispersion relations phi and their growth/curvature exponents.

A symbol declares four exponents (m1, m2, alpha1, alpha2) describing the
dyadic behaviour of its derivatives,

    |phi'(r)|  ~ r^(m1-1)      (r >= 1),      |phi'(r)|  ~ r^(m2-1)     (r < 1),
    |phi''(r)| ~ r^(alpha1-2)  (r >= 1),      |phi''(r)| ~ r^(alpha2-2) (r < 1),

with curvature exponents optional (the pure wave symbol has phi'' = 0).
A homogeneous symbol, phi(s) = c s^d, also declares its degree d, under
which band k is band 0 dilated (estimates.measure_frequency_norms).
`verify_hypotheses` measures the ratios octave by octave, and `regime_exponents`
returns the (m, alpha) pair active at a dyadic index k (breakpoint at k = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonPositiveSample, UnknownSigma

ScalarMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DispersionSymbol:
    name: str
    phi: ScalarMap
    dphi: ScalarMap
    d2phi: ScalarMap
    m1: float
    m2: float
    alpha1: Optional[float] = None
    alpha2: Optional[float] = None
    # d when phi(s) = c s^d (homogeneous); None for massive and mixed symbols
    degree: Optional[float] = None

    def __post_init__(self):
        if self.m1 <= 0 or self.m2 <= 0:
            raise ValueError("growth exponents must be positive")
        # curvature never exceeds growth at high frequency, reverse at low
        if self.alpha1 is not None and self.alpha1 > self.m1:
            raise ValueError(f"{self.name}: alpha1 > m1 contradicts the dispersion relations")
        if self.alpha2 is not None and self.alpha2 < self.m2:
            raise ValueError(f"{self.name}: alpha2 < m2 contradicts the dispersion relations")

    @property
    def has_curvature(self) -> bool:
        return self.alpha1 is not None and self.alpha2 is not None

    def sup_dphi(self, lo: float, hi: float) -> float:
        s = np.linspace(lo, hi, 257)
        return float(np.max(np.abs(self.dphi(s))))

    def min_dphi(self, lo: float, hi: float) -> float:
        s = np.linspace(lo, hi, 257)
        return float(np.min(np.abs(self.dphi(s))))


@dataclass(frozen=True)
class RegimeExponents:
    m: float
    alpha: Optional[float]
    k: int


def regime_exponents(symbol: DispersionSymbol, k: int) -> RegimeExponents:
    """(m(k), alpha(k)): m1/alpha1 for k >= 0, m2/alpha2 for k < 0."""
    if k >= 0:
        return RegimeExponents(symbol.m1, symbol.alpha1, k)
    return RegimeExponents(symbol.m2, symbol.alpha2, k)


@dataclass(frozen=True)
class OctaveRatios:
    k: int
    dphi_min: float
    dphi_max: float
    d2phi_min: Optional[float]
    d2phi_max: Optional[float]


@dataclass(frozen=True)
class HypothesisReport:
    symbol: str
    window_constant: float
    octaves: list
    dphi_reference: float
    d2phi_reference: Optional[float]
    passed: bool


def verify_hypotheses(symbol: DispersionSymbol, k_range=range(-8, 9)) -> HypothesisReport:
    """Measure |phi'|/r^(m(k)-1) and |phi''|/r^(alpha(k)-2) per octave, on 16
    log-spaced samples each.

    The hypotheses fix each ratio only up to a symbol-dependent constant, so
    the window test is applied to the ratios normalized by their geometric
    mean over the whole sweep: PASS iff every normalized ratio lies in
    [1/C, C], C = 10.  Raw per-octave extrema are reported alongside.
    """
    window_constant = 10.0
    octaves = []
    d1_all, d2_all = [], []
    for k in k_range:
        lo = 2.0**k
        if lo <= 0:
            raise NonPositiveSample(f"octave 2^{k} underflows to zero")
        r = np.exp(np.linspace(np.log(lo), np.log(2.0 ** (k + 1)), 16))
        reg = regime_exponents(symbol, k)
        ratio1 = np.abs(symbol.dphi(r)) / r ** (reg.m - 1.0)
        d1_all.append(ratio1)
        if symbol.has_curvature:
            ratio2 = np.abs(symbol.d2phi(r)) / r ** (reg.alpha - 2.0)
            d2_all.append(ratio2)
            octaves.append(OctaveRatios(k, ratio1.min(), ratio1.max(), ratio2.min(), ratio2.max()))
        else:
            octaves.append(OctaveRatios(k, ratio1.min(), ratio1.max(), None, None))

    def _ok(groups):
        vals = np.concatenate(groups)
        ref = np.exp(np.mean(np.log(vals)))
        return ref, bool(np.all(vals / ref <= window_constant) and np.all(vals / ref >= 1.0 / window_constant))

    ref1, ok1 = _ok(d1_all)
    if d2_all:
        ref2, ok2 = _ok(d2_all)
    else:
        ref2, ok2 = None, True
    return HypothesisReport(symbol.name, window_constant, octaves, ref1, ref2, ok1 and ok2)


def _schrodinger() -> DispersionSymbol:
    return DispersionSymbol(
        "schrodinger",
        phi=lambda s: s**2,
        dphi=lambda s: 2.0 * s,
        d2phi=lambda s: 2.0 * np.ones_like(np.asarray(s, dtype=float)),
        m1=2.0, m2=2.0, alpha1=2.0, alpha2=2.0, degree=2.0,
    )


def _wave() -> DispersionSymbol:
    # phi'' vanishes identically: no curvature exponents.
    return DispersionSymbol(
        "wave",
        phi=lambda s: np.asarray(s, dtype=float),
        dphi=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        d2phi=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        m1=1.0, m2=1.0, alpha1=None, alpha2=None, degree=1.0,
    )


def _klein_gordon() -> DispersionSymbol:
    return DispersionSymbol(
        "klein-gordon",
        phi=lambda s: np.sqrt(1.0 + np.asarray(s, dtype=float)**2),
        dphi=lambda s: s / np.sqrt(1.0 + s**2),
        d2phi=lambda s: (1.0 + s**2) ** (-1.5),
        m1=1.0, m2=2.0, alpha1=-1.0, alpha2=2.0,
    )


def _beam() -> DispersionSymbol:
    return DispersionSymbol(
        "beam",
        phi=lambda s: np.sqrt(1.0 + np.asarray(s, dtype=float)**4),
        dphi=lambda s: 2.0 * s**3 / np.sqrt(1.0 + s**4),
        d2phi=lambda s: (6.0 * s**2 + 2.0 * s**6) / (1.0 + s**4) ** 1.5,
        m1=2.0, m2=4.0, alpha1=2.0, alpha2=4.0,
    )


def _fourth_order() -> DispersionSymbol:
    return DispersionSymbol(
        "fourth-order",
        phi=lambda s: s**2 + s**4,
        dphi=lambda s: 2.0 * s + 4.0 * s**3,
        d2phi=lambda s: 2.0 + 12.0 * s**2,
        m1=4.0, m2=2.0, alpha1=4.0, alpha2=2.0,
    )


def fractional_symbol(sigma: float) -> DispersionSymbol:
    if sigma <= 0:
        raise UnknownSigma(f"fractional symbol needs sigma > 0, got {sigma}")
    return DispersionSymbol(
        f"fractional:{sigma:g}",
        phi=lambda s: s**sigma,
        dphi=lambda s: sigma * s ** (sigma - 1.0),
        d2phi=lambda s: sigma * (sigma - 1.0) * s ** (sigma - 2.0),
        m1=sigma, m2=sigma, alpha1=sigma, alpha2=sigma, degree=sigma,
    )


def builtin_symbols() -> dict:
    """Catalog keyed by name; fractional orders via get_symbol('fractional:<sigma>')."""
    cat = {}
    for s in (_schrodinger(), _wave(), _klein_gordon(), _beam(), _fourth_order()):
        cat[s.name] = s
    return cat


def get_symbol(name: str) -> DispersionSymbol:
    """Resolve a catalog name, including 'fractional:<sigma>'."""
    if name.startswith("fractional:"):
        try:
            sigma = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise UnknownSigma(f"cannot parse sigma in {name!r}") from exc
        return fractional_symbol(sigma)
    cat = builtin_symbols()
    if name not in cat:
        raise KeyError(f"unknown symbol {name!r}; known: {sorted(cat)} or fractional:<sigma>")
    return cat[name]
