"""rsl: a numerical laboratory for radial dispersive evolutions.

Evaluates the radial propagator e^{i t phi(sqrt(-Delta))} for a catalog of
dispersion symbols, measures frequency-localized space-time Lebesgue norms,
fits dyadic scaling exponents against their predicted rates, runs the
sharpness counterexamples, performs exact admissible-pair arithmetic, and
drives small-data Picard fixed points for the radial semilinear Schrodinger,
wave, and fractional Schrodinger problems.
"""

from .admissibility import (
    CriticalExponents,
    choose_pairs_nls,
    choose_pairs_nlw,
    figure_vertices,
    gap_condition,
    is_radial_schrodinger_admissible,
    is_radial_wave_admissible,
    kg_beam_constants,
    thresholds,
)
from .bessel import (
    BesselSplit,
    bessel_asymptotic_split,
    bessel_bound_check,
    bessel_j,
    radial_kernel,
)
from .cutoffs import dyadic_cutoff
from .dispersion import (
    DispersionSymbol,
    RegimeExponents,
    builtin_symbols,
    fractional_symbol,
    get_symbol,
    regime_exponents,
    verify_hypotheses,
)
from .errors import *  # noqa: F401,F403
from .estimates import (
    ExponentFit,
    counterexample_schrodinger,
    counterexample_wave,
    fit_annulus_scaling,
    fit_frequency_scaling,
    hls_bilinear_check,
    knapp_fractional,
    maximal_check,
    predicted_exponent,
    retarded_strichartz_check,
    smoothing_lemma_check,
    strichartz_l6_check,
)
from .grids import FrequencyGrid, PhysicalGrid
from .nonlinear import (
    NonlinearProblem,
    PicardTrace,
    ScatteringDiagnostic,
    fnls_experiment,
    nls_small_data_experiment,
    nlw_small_data_experiment,
    picard_solve,
    scattering_state,
)
from .propagator import (
    SpaceTimeField,
    evolve,
    main_error_split,
    oracle_wave_cosine_3d,
)
from .transform import (
    RadialProfile,
    canonical_band_profile,
    fourier_bessel,
    l2_norm,
    project,
    sobolev_norm,
    spacetime_norm,
)

__version__ = "0.1.0"
