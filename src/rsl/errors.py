"""Exception types shared across the library."""


class RslError(Exception):
    """Base class for all library errors."""


class NonPositiveSample(RslError):
    """A radial/frequency grid contained a point <= 0 where positivity is required."""


class UnknownSigma(RslError):
    """Fractional symbol requested with sigma <= 0."""


class DomainError(RslError):
    """Argument outside the mathematical domain of the function."""


class SmallArgument(RslError):
    """Large-argument asymptotic split requested below its validity threshold."""


class QuadratureUnderresolved(RslError):
    """A grid cannot resolve its oscillation, or would exceed the node or array limit."""


class SplitDomainError(RslError):
    """Main/error splitting requested where r*s < 1 for some quadrature pair."""


class OutOfRangeQ(RslError):
    """Lebesgue exponent q outside the validity range of the requested estimate."""


class RegimeViolation(RslError):
    """Annulus/band indices violate the inner (j+k<=1) or outer (j+k>=2) regime."""


class ParameterViolation(RslError):
    """Weighted bilinear-form parameters violate the inequality's hypotheses."""


class AdmissibilityViolation(RslError):
    """An exponent pair fails the required admissibility region."""


class NoPairAvailable(RslError):
    """No exponent-pair recipe exists for the requested regularity."""


class OutOfRangeS(RslError):
    """Sobolev regularity outside the theorem's hypothesis range."""


class OutOfRangeSigma(RslError):
    """Fractional order sigma outside the admissible interval."""


class NonContraction(RslError):
    """Fixed-point iteration failed to contract."""


class ConfigError(RslError):
    """Invalid run configuration."""
