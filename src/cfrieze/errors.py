"""Exception hierarchy shared by every module.

Domain-level failures (bad input, forbidden values) derive from FriezeError
so callers and the CLI can map them to a clean diagnostic and exit code.
InternalError is deliberately *not* a FriezeError: it flags a broken
invariant inside the library, never a user mistake.
"""


class FriezeError(Exception):
    """Base class for all domain-level errors."""


class MalformedInput(FriezeError):
    """An input file does not hold a JSON object."""


# -- exact rational scalars ------------------------------------------------

class MalformedRational(FriezeError):
    """Text does not match [+-]?digits[/digits]."""


class ZeroDenominator(FriezeError):
    """A rational literal with denominator 0."""


class NotASquare(FriezeError):
    """The rational has no rational square root."""


class DivisorZero(FriezeError):
    """Divisibility test against a zero divisor."""


# -- continuant evaluation and identities ----------------------------------

class ZeroParameter(FriezeError):
    """The recurrence parameter c (or b) must be nonzero."""


class ZeroDenominatorInCF(FriezeError):
    """A suffix continuant vanished while folding a continued fraction."""


class BoundExceeded(FriezeError):
    """Symbolic order outside the configured expansion bound."""


# -- frieze construction ---------------------------------------------------

class DegenerateSeed(FriezeError):
    """Free values whose penultimate-row continuant vanishes."""


class InvalidSeed(FriezeError):
    """Seed failed validation; carries the list of violations."""

    def __init__(self, violations, message="seed is not admissible"):
        self.violations = list(violations)
        detail = "; ".join(map(str, self.violations))
        super().__init__(f"{message}: {detail}" if detail else message)


class OutOfBand(FriezeError):
    """Grid point outside the band of the frieze's order."""


# -- sections and reconstruction -------------------------------------------

class InvalidSection(FriezeError):
    """Point set is not a section of the band (wrong rows or adjacency)."""


class ZeroPivot(FriezeError):
    """A value that must be divided by is zero."""


class ZeroOnSection(FriezeError):
    """A section value on rows 0..n+1 is zero; reconstruction refused."""


class InconsistentSection(FriezeError):
    """Section values admit no frieze (post-verification mismatch)."""


# -- analysis preconditions ------------------------------------------------

class NotMonotonic(FriezeError):
    """Operation defined only for friezes with |s| = |t|."""


class PreconditionBreach(FriezeError):
    """A stated hypothesis of the requested analysis does not hold."""


# -- transformations -------------------------------------------------------

class ZeroScale(FriezeError):
    """Scaling factor d must be nonzero."""


class NotRepetitive(FriezeError):
    """Operation requires s = t and c < 0."""


class IrrationalRoot(FriezeError):
    """(-c) has no rational square root."""


class NotInduced(FriezeError):
    """Frieze lacks the required first-row value (-c)^(1/2)."""


class OrderTooSmall(FriezeError):
    """Order-lowering transformation needs order >= 2."""


class InternalError(Exception):
    """A library invariant failed; indicates a bug, not bad input."""
