"""Exception types shared across the package."""


class SobspecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SobspecError, ValueError):
    """A constructor or CLI parameter violates its contract (e.g. alpha <= -1)."""


class DegeneratePointError(SobspecError, ValueError):
    """A denominator that is nonzero for mass points outside the support vanished.

    This cannot happen for a positive measure with c outside the support; it
    guards custom recurrences whose positivity is not validated.
    """


class NotPositiveDefiniteError(SobspecError, ArithmeticError):
    """A Cholesky pivot or an exact LDL^T squared norm is not positive.

    For the shifted Jacobi factorizations this signals that c lies inside, or
    numerically too close to, the support of the measure.
    """


class NumericalFailureError(SobspecError, ArithmeticError):
    """A quantity that is positive in exact arithmetic came out nonpositive,
    or two exactly-equal formulas disagreed beyond the precision-scaled guard.

    Signals precision exhaustion; rebuild with more bits.
    """


class OracleUnsupportedError(SobspecError, ValueError):
    """No exact value exists or the exact-rational oracle does not cover it
    (a non-integer Laguerre alpha at ``EXACT``, more rows than the oracle's
    cap); the floating path still applies.  An alpha <= -1 is invalid."""


class InternalConsistencyError(SobspecError, RuntimeError):
    """Guard-band bookkeeping was violated (a verification would have to read
    entries outside every operand's exact region)."""
