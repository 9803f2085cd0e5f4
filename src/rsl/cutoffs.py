"""Smooth dyadic cutoffs.

The mother bump Phi is fixed bit-exactly so every run is reproducible:

    m(u)   = exp(-1/u) for u > 0, else 0
    Phi(x) = 1                                for |x| <= 1
           = m(2-|x|) / (m(2-|x|) + m(|x|-1)) for 1 < |x| < 2
           = 0                                for |x| >= 2

Phi is C-infinity, even, with supp Phi = {|x| <= 2} and Phi = 1 on {|x| <= 1}.
The annulus cutoff is psi(x) = Phi(x) - Phi(2x), supported on {1/2 <= |x| <= 2},
and sum_k psi(2^-k s) telescopes to 1 for s > 0.
"""

from __future__ import annotations

import numpy as np


def _m(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smooth_bump(x) -> np.ndarray:
    """The mother cutoff Phi described in the module docstring."""
    x = np.abs(np.asarray(x, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.ones_like(x)
    out[x >= 2.0] = 0.0
    mid = (x > 1.0) & (x < 2.0)
    a = _m(2.0 - x[mid])
    b = _m(x[mid] - 1.0)
    out[mid] = a / (a + b)
    return out[0] if scalar else out


def annulus_bump(x) -> np.ndarray:
    """psi(x) = Phi(x) - Phi(2x); one dyadic ring of the partition of unity."""
    x = np.asarray(x, dtype=float)
    return smooth_bump(x) - smooth_bump(2.0 * x)


def dyadic_cutoff(k: int, s) -> np.ndarray:
    """psi(2^-k s): the band-k Littlewood-Paley multiplier, supported on
    [2^(k-1), 2^(k+1)]."""
    return annulus_bump(np.asarray(s, dtype=float) * 2.0 ** (-k))
