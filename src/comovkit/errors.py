"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; all inherit from ComovkitError so a bare `except ComovkitError`
catches any domain failure without swallowing programming errors.
"""


class ComovkitError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigInvalid(ComovkitError):
    """A scenario or configuration object violates its contract.

    Carries JSON-pointer style paths to the offending entries when the
    source was a scenario file.
    """

    def __init__(self, message, pointers=None):
        super().__init__(message)
        self.pointers = list(pointers or [])


class NodeInDomain(ComovkitError):
    """The field modulus falls to (or provably near) zero inside the domain."""


class BranchUnavailable(ComovkitError):
    """The phase has no certified single-valued branch on the domain.

    Raised when no mode dominates the superposition (no weight above the
    sum of the others).
    """


class DensityZero(ComovkitError):
    """A density value below the positivity floor was encountered."""


class OutOfDomain(ComovkitError):
    """A point lies outside the field's declared domain (with FD margin)."""


class LeftDomain(ComovkitError):
    """An integral curve exited the field domain before its target event."""


class StepFailure(ComovkitError):
    """An ODE integration could not meet its tolerances.

    Raised by the adaptive curve integrator, and by a chart flow whose
    error estimate stays above tolerance at the step cap.
    """


class NoBracket(ComovkitError):
    """Root bracketing failed: no sign change inside the search interval."""


class ZeroSlope(ComovkitError):
    """A Newton iteration hit a vanishing derivative."""


class RootFailure(ComovkitError):
    """A root finder failed to converge to the requested tolerance."""


class NotSpacelike(ComovkitError):
    """The induced surface metric is not positive definite at a point."""


class SamplerStalled(ComovkitError):
    """The rejection sampler spent its proposal budget without acceptance."""


class HypothesesFailed(ComovkitError):
    """The field fails the chart-construction hypotheses."""


class Explosion(ComovkitError):
    """A simulated path exceeded the configured magnitude bound."""


class InsufficientSamples(ComovkitError):
    """No histogram bin reached the configured minimum sample count."""


class QuadratureDivergence(ComovkitError):
    """Nested quadrature orders disagree or boundary tails are truncated."""


class ImaginaryAction(ComovkitError):
    """The action integrand argument is non-positive."""


class ZeroJ0(ComovkitError):
    """The time component of the four-current vanishes; velocity undefined."""
