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
from .transform import RadialProfile, sphere_area


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
    r = field.grid.r_nodes[rmask]
    wr = field.grid.r_weights()[rmask]
    vals = np.abs(field.values[np.ix_(tmask, rmask)])
    om = sphere_area(field.n)
    if math.isinf(spec.r):
        inner = vals.max(axis=1)
    else:
        inner = (om * (vals ** spec.r) @ (wr * r ** (field.n - 1))) ** (1.0 / spec.r)
    if math.isinf(spec.q):
        return float(inner.max())
    wt = field.grid.t_weights()[tmask]
    return float(np.sum(wt * inner ** spec.q) ** (1.0 / spec.q))


def sobolev_norm(profile: RadialProfile, s: float) -> float:
    """Homogeneous H^s norm: (omega int s^(2s) |h|^2 s^(n-1) ds)^(1/2), same
    convention constant as l2_norm (s = 0 reduces to it)."""
    g = profile.grid
    val = np.sum(g.weights * np.abs(profile.values) ** 2 * g.nodes ** (2.0 * s + profile.n - 1))
    return float(np.sqrt(sphere_area(profile.n) * val))
