"""Quadrature grids and the resolution rule.

FrequencyGrid carries nodes and weights for integrals in the radial frequency
variable s; PhysicalGrid carries the (t, r) sample points of a space-time
field.

Oscillatory grids follow two rules: a uniform node step carries at most
node_phase(PHASE_STEP) = 0.707 rad, and a 10-node panel of `panel_grid`
spans PANEL_PHASE = 4 rad, so its largest node step (0.1489 of the panel)
carries 0.596 rad and passes `require_resolution`.

Time grids of the Picard solver and the retarded check are composite
Gauss-Lobatto panels (`time_panel_grid`): TIME_PANEL_ORDER nodes a panel,
adjacent panels sharing their end nodes, each panel spanning at most the
caller's panel phase of its phase rate: TIME_PANEL_PHASE_COMPLEX = 6 rad
for the complex NLS and FNLS fields, TIME_PANEL_PHASE_REAL = 4 rad for the
real NLW field and for the retarded check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveSample, QuadratureUnderresolved


# Gauss-Legendre nodes per panel of every composite grid
PANEL_ORDER = 10
# the phase delta_s * (|t| sup|phi'| + r) one panel of `panel_grid` spans:
# within 2.6e-11 of 1-rad panels on the canonical band evolutions, 2.1e-9
# of 2-rad ones on the Picard bench norms
PANEL_PHASE = 4.0
# Gauss-Lobatto nodes per time panel of `time_panel_grid`
TIME_PANEL_ORDER = 8
# the phase T phase_rate / panels one time panel spans at most, by the
# solved field.  A real field (NLW, u = Im a / s) gets 4 rad: its bench
# solution norms hold within 1.3e-9 (T = 4) and 4.2e-10 (T = 16) of
# 10-node panels at a quarter of the width, but at 6 rad they err by
# 4.9e-8 at T = 4, in the time quadrature of the norm, since |u|^q of a
# real field is not smooth at the field's zeros (mu = 0 reads the same).
# The retarded check keeps 4 rad too, which its pinned ratios were
# measured on.  A complex field (NLS, FNLS) has no such zeros and gets
# 6 rad: its bench solution norms hold within 1.1e-11 (T = 4) and 4.6e-11
# (T = 16) of the quarter-width rule
TIME_PANEL_PHASE_REAL = 4.0
TIME_PANEL_PHASE_COMPLEX = 6.0
PHASE_STEP = np.pi / 4  # a uniform node step carries 0.9 PHASE_STEP of that phase
NODE_LIMIT = 4_000_000  # nodes of the largest one-dimensional grid
ARRAY_LIMIT = 2**30     # bytes of the largest array built from two grids


def node_phase(phase_step: float) -> float:
    """0.9 phase_step: the phase one uniform node step may carry.  Raises
    ValueError unless phase_step lies in (0, PHASE_STEP]."""
    if not 0 < phase_step <= PHASE_STEP:
        raise ValueError(f"phase step must lie in (0, pi/4], got {phase_step}")
    return 0.9 * phase_step


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights on an ordered (possibly nonuniform) grid."""
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += d / 2
    w[1:] += d / 2
    return w


@dataclass(frozen=True)
class FrequencyGrid:
    """Nodes s_0 < ... < s_N > 0 with quadrature weights for integrals in ds."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two frequency nodes")
        if weights.shape != nodes.shape:
            raise ValueError(f"weights of shape {weights.shape} for nodes of shape {nodes.shape}")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("frequency nodes and weights must be finite")
        if np.any(nodes <= 0):
            raise NonPositiveSample("frequency nodes must be positive")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("frequency nodes must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")

    @property
    def span(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])


def uniform_grid(lo: float, hi: float, n: int) -> FrequencyGrid:
    """Uniform nodes with trapezoid weights; spectrally accurate for smooth
    integrands vanishing at both endpoints."""
    nodes = np.linspace(lo, hi, n)
    return FrequencyGrid(nodes, trapezoid_weights(nodes))


@functools.cache
def gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of `count` nodes on [-1, 1], (nodes, weights):
    computed once per count and shared, read-only, by every composite grid
    and time ladder."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panel_grid(lo: float, hi: float, n_panels: int,
                     order: int = PANEL_ORDER) -> FrequencyGrid:
    """Composite Gauss-Legendre panels of `order` nodes; panel edges split
    [lo, hi] uniformly so dyadic rescaling maps node sets exactly onto each
    other."""
    x, w = gauss_legendre(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return FrequencyGrid(nodes, weights)


@functools.cache
def gauss_lobatto(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Lobatto rule of `count` nodes on [-1, 1], (nodes, weights):
    the ends and the roots of P'_(count-1), with weights
    2 / (count (count-1) P_(count-1)(x)^2); computed once per count and
    shared, read-only."""
    leg = np.polynomial.legendre.Legendre.basis(count - 1)
    inner = np.sort(leg.deriv().roots().real)
    inner -= leg.deriv()(inner) / leg.deriv(2)(inner)   # one Newton step
    x = np.concatenate([[-1.0], inner, [1.0]])
    w = 2.0 / (count * (count - 1) * leg(x) ** 2)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def lobatto_panels(T: float, n_panels: int,
                   order: int = TIME_PANEL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Times 0 = t_0 < ... < t_N = T on `n_panels` equal panels of `order`
    Gauss-Lobatto nodes, adjacent panels sharing their end node
    (N = (order - 1) n_panels), with the composite Lobatto weights."""
    x, w = gauss_lobatto(order)
    h = T / n_panels
    edges = np.linspace(0.0, T, n_panels + 1)
    nodes = np.empty(n_panels * (order - 1) + 1)
    nodes[:-1] = (edges[:-1, None] + h / 2 * (x[None, :-1] + 1.0)).ravel()
    nodes[-1] = T
    weights = np.zeros_like(nodes)
    weights[:-1].reshape(n_panels, order - 1)[:] = h / 2 * w[:-1]
    weights[order - 1::order - 1] += h / 2 * w[-1]
    return nodes, weights


def lobatto_panel_count(t: np.ndarray, order: int = TIME_PANEL_ORDER) -> int:
    """The panel count of times t made by `lobatto_panels(t[-1], count,
    order)`; raises ValueError for any other times."""
    t = np.asarray(t, dtype=float)
    count, rest = divmod(t.size - 1, order - 1)
    if (t.ndim != 1 or count < 1 or rest or t[0] != 0.0
            or not np.allclose(t, lobatto_panels(t[-1], count, order)[0],
                               rtol=0.0, atol=1e-12 * abs(t[-1]))):
        raise ValueError(f"times are not {order}-node Lobatto panels on [0, T]")
    return count


def time_panel_grid(T: float, phase_rate: float, panel_phase: float,
                    what: str) -> tuple[np.ndarray, np.ndarray]:
    """`lobatto_panels` on [0, T] with ceil(T phase_rate / panel_phase)
    panels of TIME_PANEL_ORDER nodes, for a phase rate `phase_rate`
    (radians per unit t) and the phase `panel_phase` one panel spans at
    most (TIME_PANEL_PHASE_REAL or TIME_PANEL_PHASE_COMPLEX); the rule has
    no floor, so it is covariant under (T, phase_rate) -> (T / c,
    c phase_rate).  Raises QuadratureUnderresolved, naming `what`, past
    NODE_LIMIT."""
    n_panels = max(int(np.ceil(T * phase_rate / panel_phase)), 1)
    require_node_limit(n_panels * (TIME_PANEL_ORDER - 1) + 1, what)
    return lobatto_panels(T, n_panels)


def band_edges(k: int) -> tuple[float, float]:
    """Support [2^(k-1), 2^(k+1)] of the band-k cutoff."""
    return 2.0 ** (k - 1), 2.0 ** (k + 1)


def require_node_limit(nodes: int, what: str) -> None:
    """Raises QuadratureUnderresolved when a grid of `nodes` nodes would
    exceed NODE_LIMIT.  Callers check a grid's node count before they
    allocate it; the message gives the count to three digits."""
    if nodes > NODE_LIMIT:
        raise QuadratureUnderresolved(f"{what}: {nodes:.3g} nodes exceed the limit {NODE_LIMIT:,}")


def require_array_limit(shape: tuple, itemsize: int, what: str) -> None:
    """Raises QuadratureUnderresolved when an array of `shape` with items of
    `itemsize` bytes would exceed ARRAY_LIMIT.  Callers check before they allocate."""
    if math.prod(shape) * itemsize > ARRAY_LIMIT:
        raise QuadratureUnderresolved(f"{what}: {shape} array of {itemsize}-byte items "
                                      f"exceeds the limit of {ARRAY_LIMIT} bytes")


def panel_grid(lo: float, hi: float, phase_rate: float, what: str) -> FrequencyGrid:
    """Gauss-Legendre panels on [lo, hi], two more than a phase rate
    `phase_rate` (radians per unit s) needs at PANEL_PHASE a panel.  Raises
    QuadratureUnderresolved, naming `what`, past NODE_LIMIT."""
    n_panels = int(np.ceil((hi - lo) * phase_rate / PANEL_PHASE)) + 2
    require_node_limit(n_panels * PANEL_ORDER, what)
    return gauss_panel_grid(lo, hi, n_panels)


def require_resolution(grid: FrequencyGrid, phase_rate: float) -> None:
    """Raises QuadratureUnderresolved unless the largest node step of `grid`
    times `phase_rate` (radians per unit s) stays within node_phase(PHASE_STEP),
    the bound the uniform grids of the band plan are built at."""
    max_ds = float(np.max(np.diff(grid.nodes)))
    bound = node_phase(PHASE_STEP)
    if max_ds * phase_rate > bound:
        raise QuadratureUnderresolved(
            f"grid spacing {max_ds:.3g} cannot resolve phase rate {phase_rate:.3g} "
            f"(bound {bound:.3g} rad per node step)"
        )


@dataclass(frozen=True)
class PhysicalGrid:
    """Ordered radii r_nodes > 0 and times t_nodes of a space-time sample set."""

    r_nodes: np.ndarray
    t_nodes: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_nodes, dtype=float)
        t = np.asarray(self.t_nodes, dtype=float)
        object.__setattr__(self, "r_nodes", r)
        object.__setattr__(self, "t_nodes", t)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("grid nodes must be finite")
        if np.any(r <= 0):
            raise NonPositiveSample("physical radii must be positive")
        if np.any(np.diff(r) <= 0) or np.any(np.diff(t) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
