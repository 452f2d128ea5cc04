"""Exception hierarchy for hermlat.

Every failure mode that callers may want to catch gets its own class; all
inherit from HermlatError so `except HermlatError` catches the lot.
"""


class HermlatError(Exception):
    pass


class PrecisionLoss(HermlatError):
    """A result would carry fewer guaranteed digits than the guard allows."""


class DivisionByZeroModPrecision(HermlatError):
    """Divisor is indistinguishable from zero at working precision."""


class ZeroValuation(HermlatError):
    """Valuation requested of an element that is zero at working precision."""


class NegativeValuation(HermlatError):
    """Residue requested of a non-integral element."""


class NotAUnit(HermlatError):
    pass


class WrongKind(HermlatError):
    """Operation requires a different kind of etale algebra (split/inert/ramified)."""


class ParityMismatch(HermlatError):
    """Requested skew valuation has the wrong parity."""


class SearchExhausted(HermlatError):
    """A bounded residue search failed; indicates a bug or bad input."""


class Unstable(HermlatError):
    """Enumeration oracle did not stabilize within its modulus budget."""


class NoSolutionAtPrecision(HermlatError):
    pass


class NotModular(HermlatError):
    pass


class RangeViolation(HermlatError):
    """Standard-plane parameters outside their admissible range."""


class HypothesisViolation(HermlatError):
    """Preconditions of a rewriting step do not hold."""


class MismatchedPlane(HermlatError):
    """Two Eichler isometries refer to different hyperbolic pairs."""


class NotSkew(HermlatError):
    pass


class InvariantViolation(HermlatError):
    pass


class NotAnIsometry(HermlatError):
    pass


class UnsupportedCase(HermlatError):
    """A proof-branch precondition failed at runtime; no factorization emitted."""


class VerificationFailed(HermlatError):
    def __init__(self, message, factor_index=None):
        super().__init__(message)
        self.factor_index = factor_index


class SpecFileError(HermlatError):
    """Parse error in a lattice spec file; carries a position."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
