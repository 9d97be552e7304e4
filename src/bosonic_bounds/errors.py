"""Exception types shared across the package, and the input checks that
raise them: :func:`_reals`, which every number of a public entry point
passes first, then :func:`_require`."""

import math

import numpy as np


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


_SCALARS = (int, float, np.bool_, np.integer, np.floating)  # a real scalar's types: no ndarray


def _reals(what, names, *values, arrays=False):
    """`values`, named by the words of `names`, as Python floats: each a bool,
    an int within float64's range, a float or a numpy bool, int or float
    scalar.  With `arrays`, as float64 arrays, each of a bool, int or float
    dtype, broadcast against each other.  Anything else (a str, None, complex,
    an ndarray for a scalar, a ragged list) is `what`'s DomainError."""
    for v in values:
        if arrays or type(v) is not float:  # Python floats, the common case, pass as they are
            break
    else:
        return values
    out = []
    for i, v in enumerate(values):
        try:
            if arrays:  # same_kind casts from bool, int and float; TypeError from another dtype
                out.append(np.asarray(v).astype(float, casting="same_kind", copy=False))
            elif isinstance(v, _SCALARS):
                out.append(float(v))  # OverflowError: an int beyond float64
            else:
                raise TypeError
        except (TypeError, ValueError, OverflowError):  # ValueError: a ragged list
            got = ", ".join(f"{name}={_shown(u)}" for name, u in zip(names.split(), values))
            raise DomainError(f"{what} takes real numbers, got {got}: {names.split()[i]} must "
                              f"{'hold real numbers' if arrays else 'be a real number'}") from None
    try:
        return np.broadcast_arrays(*out) if arrays and len(out) > 1 else out
    except ValueError:
        raise DomainError(f"{what} takes arrays that broadcast together, got shapes "
                          f"{', '.join(str(a.shape) for a in out)}") from None


def _shown(v):
    """repr(v), but an array by its shape and dtype and a list or tuple by its length."""
    if isinstance(v, np.ndarray):
        return f"ndarray of shape {v.shape} and dtype {v.dtype}"
    return f"{type(v).__name__} of length {len(v)}" if isinstance(v, (list, tuple)) else repr(v)


def _require(ok: bool, message: str, *values, error=DomainError):
    """Raise `error` unless every one of `values` is finite and `ok` holds:
    NaN and +-inf lie outside every domain of the package.  The message,
    `message.format(*values)`, is built only when raising."""
    if ok and all(map(math.isfinite, values)):
        return
    text = message.format(*values)
    bad = [v for v in values if not math.isfinite(v)]
    raise error(f"{text}; got non-finite {bad[0]}" if bad else text)
