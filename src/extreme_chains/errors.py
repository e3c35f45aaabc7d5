"""Exception types shared across the package, and the parameter check that
turns a misspelt config key into a ValidationError."""

import inspect


class ExtremeChainsError(Exception):
    """Base class for all package errors."""


class DomainError(ExtremeChainsError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ValidationError(ExtremeChainsError, ValueError):
    """Parameter outside its admissible range; message names the violated range."""


class AccuracyError(ExtremeChainsError):
    """Numerical integration failed to reach the requested tolerance.

    Carries the best available estimate in ``best``.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class ConvergenceError(ExtremeChainsError):
    """Iterative solver failed to converge."""


class UnsupportedSchemeError(ValidationError):
    """Requested norming scheme is not in the catalogue."""


class UnsupportedLawError(ValidationError):
    """Requested limit law is unknown or underivable."""


class RegimeError(ExtremeChainsError):
    """Simulator invoked outside its theorem regime (e.g. limit law with atoms)."""


class SamplingError(ExtremeChainsError):
    """Inverse-CDF sampling failed; reports the conditioning state and uniform draw."""

    def __init__(self, message, x=None, u=None):
        super().__init__(message)
        self.x = x
        self.u = u


def call_checked(what, builder, params):
    """``builder(**params)``; a parameter it does not take is a ValidationError."""
    signature = inspect.signature(builder)
    try:
        signature.bind(**params)
    except TypeError as exc:
        raise ValidationError(
            f"{what}: {exc} (takes: "
            f"{', '.join(signature.parameters) or 'no parameters'})") from None
    return builder(**params)
