"""Exception types shared across the package."""


class PqError(Exception):
    """Base class for every error raised by pqcalc."""


class NonPositiveBaseError(PqError):
    """Real-exponent bracket needs p > 0 and q > 0."""


class NegativeArgumentError(PqError):
    """Argument must be a nonnegative integer."""


class OutOfRangeError(PqError):
    """An index pair outside 0 <= k <= n, or a p, q pair that doubles cannot hold."""


class PoleError(PqError):
    """A denominator factor of a negative power vanishes at the point."""


class MissingDerivativeAtZeroError(PqError):
    """Derivative at x = 0 was not supplied and the fallback did not settle."""


class DegenerateRegimeError(PqError):
    """|q/p| = 1: the operation has no defined two-case formula there."""


class WrongRegimeError(PqError):
    """Operation is only defined for the |q/p| < 1 lattice."""


class InvalidIntervalError(PqError):
    """Integration bounds must satisfy 0 <= a < b."""


class DivergenceError(PqError):
    """Series evaluation tripped the divergence detector."""
