"""Exception types shared across the package."""


class WlwError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(WlwError, ValueError):
    """A constructor argument or precondition is invalid."""


class NonPositiveRadius(InvalidParameter):
    """The profile radius x must be strictly positive."""


class NonPositiveScale(InvalidParameter):
    """A homothety factor must be strictly positive."""


class NoFullTurn(WlwError):
    """Trajectory's tangent angle never spans a full turn."""


class VerificationFailed(WlwError):
    """A claimed geometric property failed its numerical verification."""


class NotVertical(WlwError):
    """Requested location is not a vertical-tangent point."""


class NoBracket(WlwError):
    """A root-finding bracket holds no sign change."""


class QuadratureFailure(WlwError):
    """Adaptive quadrature failed to meet its tolerance."""


class NearSingular(WlwError):
    """Energy exponent base |theta' - mu| too small everywhere on the span."""


class Unsupported(WlwError):
    """The umbilical case a = 1, b = 0 has no associated energy."""


class DivergentIntegrand(WlwError):
    """Energy integrand is undefined or non-finite on the span."""


class DegenerateProfile(WlwError):
    """Too few usable profile samples to build a mesh."""


class Inconclusive(WlwError):
    """No class or portrait: floats cannot resolve an orbit's level set; diagnostics say why."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
