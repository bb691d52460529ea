"""Exception taxonomy shared across the package.

Numerical failures (iteration did not converge, a quadrature segment runs
into a pole) are distinct from structural errors (constant input where a
nonconstant polynomial is required, empty sampling domains) so that callers
can map them onto distinct exit codes.  Each class carries the command-line
exit code of its failures: 3 for input and structural errors, 4 for
numerical ones.
"""


class CurveTorsionError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 3


class DegreeZero(CurveTorsionError):
    """Root extraction was asked for on a constant polynomial."""


class NonConvergence(CurveTorsionError):
    """An iteration or quadrature failed its convergence test."""

    exit_code = 4


class RootFindingFailed(CurveTorsionError):
    """A decomposition step could not obtain usable roots."""

    exit_code = 4


class EpsNotDivisor(CurveTorsionError):
    """The sector width does not divide the full angle 2*pi."""


class ApertureTooWide(CurveTorsionError):
    """A sector is too wide for tangent-chord convexification."""


class DegenerateTorsion(CurveTorsionError):
    """The curve has identically vanishing torsion."""


class RetriesExhausted(CurveTorsionError):
    """The deterministic perturbation family ran out of candidates."""

    exit_code = 4


class SegmentHitsSingularity(CurveTorsionError):
    """An integration segment passes too close to an integrand pole."""

    exit_code = 4


class DegenerateTriple(CurveTorsionError):
    """A sample triple has coincident points or zero weight."""


class EmptyRegion(CurveTorsionError):
    """The region has no area to sample, or no usable sample."""


class ZeroVolume(CurveTorsionError):
    """A measurable set with zero volume was supplied."""
