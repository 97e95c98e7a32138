"""Exception types shared across the package.

The CLI maps these onto exit codes: validation failures (bad field
parameters, syntax errors) exit 2 before any computation runs, while
mathematically meaningful failures (precision exhausted, identical
streams, a non-solid map) exit 1.
"""


class CharpError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(CharpError):
    """The requested characteristic is not a prime number."""


class DegreeTooLarge(CharpError):
    """Field parameters exceed the supported desk-scale bounds."""


class ContextMismatch(CharpError):
    """Operands belong to different field contexts or variable counts."""


class PolySyntaxError(CharpError):
    """Polynomial text failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExponentOverflow(CharpError):
    """An exponent left the 32-bit-per-variable range."""


class SizeBound(CharpError):
    """An enumeration would exceed the configured size bound."""


class PrecisionMismatch(CharpError):
    """A truncated series is shorter than the requested precision."""


class PrecisionExhausted(CharpError):
    """No nonzero coefficient appeared below the precision cap, nor, for
    images that know their support, in the walk past it.

    The walk gives up, so this is raised, in three cases: an image has no
    support (a from-seed or t image); the next support index would pass
    the exponent bound, as it does for every element of the kernel when
    the series images satisfy an algebraic relation (the embedding is then
    not injective); or the walk's sparse products would run past their
    budget.  Carries the last precision at which the image was seen to
    vanish.
    """

    def __init__(self, message, last_precision):
        super().__init__(message)
        self.last_precision = last_precision


class NotInRing(CharpError):
    """Residue requested for an element of negative value."""


class StreamsAgree(CharpError):
    """Two coefficient streams did not differ below the precision cap."""


class NotSolid(CharpError):
    """The map sends 1 to 0, so it witnesses no solidity."""
