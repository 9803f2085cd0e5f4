"""Mixed space-time Lebesgue norms and homogeneous Sobolev norms.

Radial integrals carry the full spherical measure omega_{n-1} r^(n-1) dr so
reported numbers are genuine R^n norms.  Domain restriction works by node
membership with globally-assigned trapezoid weights, which makes the dyadic
annulus decomposition additive exactly: ||F||_q^q(R x R^n) equals the sum of
the per-annulus q-th powers by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainNotCovered
from .propagator import SpaceTimeField
from .transform import RadialProfile, radial_norm


@dataclass(frozen=True)
class MixedNormSpec:
    """L^q_t L^r_x over a time window and a radial region.

    region: ("all",) | ("annulus", j) | ("tail", R)
    window: (t_lo, t_hi) or None for the field's full grid.
    """

    q: float
    r: float
    window: Optional[tuple] = None
    region: tuple = ("all",)

    def __post_init__(self):
        if self.q < 1 or self.r < 1:
            raise ValueError("exponents must be >= 1")


def _region_mask(field: SpaceTimeField, region: tuple) -> np.ndarray:
    r = field.grid.r_nodes
    if region[0] == "all":
        return np.ones_like(r, dtype=bool)
    if region[0] == "annulus":
        j = region[1]
        mask = (r >= 2.0 ** (j - 1)) & (r < 2.0**j)
        if not mask.any():
            raise DomainNotCovered(f"grid has no nodes in annulus {j}")
        return mask
    if region[0] == "tail":
        mask = r >= region[1]
        if not mask.any():
            raise DomainNotCovered(f"grid has no nodes with r >= {region[1]}")
        return mask
    raise ValueError(f"unknown region {region!r}")


def spacetime_norm(
    values: np.ndarray, measure: np.ndarray, wt: np.ndarray, n: int, q: float, r: float
) -> float:
    """L^q_t L^r_x norm of samples values[t_i, r_j]: (sum_i wt_i inner_i^q)^(1/q),
    or max_i inner_i for q = inf, with inner_i the `radial_norm` of row i
    against the radial measure (weights times r^(n-1))."""
    inner = radial_norm(values, measure, n, r)
    if math.isinf(q):
        return float(inner.max())
    return float(np.sum(wt * inner**q) ** (1.0 / q))


def mixed_norm(field: SpaceTimeField, spec: MixedNormSpec) -> float:
    """( int ( int_Omega |F|^r omega r^(n-1) dr )^(q/r) dt )^(1/q), suprema
    for infinite exponents."""
    t = field.grid.t_nodes
    if spec.window is not None:
        lo, hi = spec.window
        if lo < t[0] - 1e-12 or hi > t[-1] + 1e-12:
            raise DomainNotCovered(f"window {spec.window} outside grid [{t[0]}, {t[-1]}]")
        tmask = (t >= lo - 1e-12) & (t <= hi + 1e-12)
    else:
        tmask = np.ones_like(t, dtype=bool)
    rmask = _region_mask(field, spec.region)
    measure = (field.grid.r_weights() * field.grid.r_nodes ** (field.n - 1))[rmask]
    return spacetime_norm(field.values[np.ix_(tmask, rmask)], measure,
                          field.grid.t_weights()[tmask], field.n, spec.q, spec.r)


def sobolev_norm(profile: RadialProfile, s: float) -> float:
    """Homogeneous H^s norm: (omega int s^(2s) |h|^2 s^(n-1) ds)^(1/2), same
    convention constant as l2_norm (s = 0 reduces to it)."""
    g = profile.grid
    measure = g.weights * g.nodes ** (2.0 * s + profile.n - 1)
    return float(radial_norm(profile.values, measure, profile.n, 2))
