"""Exception types shared across the package, the one path that builds an
object from a catalogue id or a spec mapping, and the parameter check that
turns a misspelt or wrongly typed config key into a ValidationError."""

import inspect
import math
from collections.abc import Mapping
from numbers import Real


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


class RegimeError(ExtremeChainsError):
    """Simulator invoked outside its theorem regime (e.g. limit law with atoms)."""


def _finite(number):
    """Whether ``number`` is finite as a double (an int too large for one is not)."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def call_checked(what, builder, params):
    """``builder(**params)``; a parameter it does not take, or a value of the
    wrong type, is a ValidationError.

    A value must be a mapping where the builder annotates the parameter
    ``dict`` (a component spec), a string where the builder's default is one,
    and a finite real number (not a bool) otherwise.  Values caught by a ``**``
    parameter are left to the builder that takes them.
    """
    signature = inspect.signature(builder)
    try:
        bound = signature.bind(**params)
    except TypeError as exc:
        raise ValidationError(
            f"{what}: {exc} (takes: "
            f"{', '.join(signature.parameters) or 'no parameters'})") from None
    for name, value in bound.arguments.items():
        parameter = signature.parameters[name]
        if parameter.kind is parameter.VAR_KEYWORD:
            continue
        if parameter.annotation is dict:
            want, ok = "a mapping", isinstance(value, Mapping)
        elif isinstance(parameter.default, str):
            want, ok = "a string", isinstance(value, str)
        else:
            want, ok = "a number", isinstance(value, Real) and not isinstance(value, bool)
        if not ok:
            raise ValidationError(
                f"{what}: parameter '{name}' must be {want}; got {value!r}")
        if want == "a number" and not _finite(value):
            raise ValidationError(
                f"{what}: parameter '{name}' must be finite; got {value!r}")
    return builder(**params)


def build(catalogue, what, key, params):
    """``catalogue[key](**params)`` through :func:`call_checked`; a key the
    catalogue lacks is a ValidationError that lists the known ones."""
    try:
        builder = catalogue[key]
    except (KeyError, TypeError):      # TypeError: an unhashable id
        raise ValidationError(f"unknown {what} id '{key}'; known: "
                              f"{', '.join(sorted(catalogue))}") from None
    return call_checked(f"{what} '{key}'", builder, params)


def from_spec(make, spec, what):
    """``make(id, **params)`` for a spec mapping ``{"id": id, **params}``,
    which is left intact."""
    if not isinstance(spec, Mapping) or "id" not in spec:
        raise ValidationError(f"{what} spec must be a mapping with an 'id'")
    params = dict(spec)
    return make(params.pop("id"), **params)
