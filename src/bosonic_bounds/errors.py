"""Exception types shared across the package, and the input check that
raises them."""

import math


class BosonicBoundsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BosonicBoundsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidStateError(BosonicBoundsError, ValueError):
    """A covariance matrix or mean vector does not describe a physical state."""


class InvalidChannelError(BosonicBoundsError, ValueError):
    """An (X, Y) pair violates the complete-positivity condition."""


class ChannelKindError(BosonicBoundsError, TypeError):
    """A channel of the wrong kind was passed to a kind-specific operation."""


class InfeasibleBoundError(BosonicBoundsError, RuntimeError):
    """The requested bound does not apply in this parameter regime.

    Raised instead of returning 0, since 0 is a meaningful capacity value.
    The message names the violated condition.
    """


class SingularMatrixError(BosonicBoundsError, ArithmeticError):
    """An intermediate matrix quantity was singular or non-finite."""


def _not_real(what, **values):
    """The DomainError for `what` given a value that is not a real number (a
    str, None or a complex number), which its checks meet as a TypeError."""
    got = ", ".join(f"{name}={v!r}" for name, v in values.items())
    return DomainError(f"{what} takes real numbers, got {got}")


def _require(ok: bool, message: str, *values, error=DomainError):
    """Raise `error` unless every one of `values` is finite and `ok` holds:
    NaN and +-inf lie outside every domain of the package.  The message,
    `message.format(*values)`, is built only when raising."""
    if ok and all(map(math.isfinite, values)):
        return
    text = message.format(*values)
    bad = [v for v in values if not math.isfinite(v)]
    raise error(f"{text}; got non-finite {bad[0]}" if bad else text)
