"""Exception hierarchy shared by all dynzeta modules."""


class DynzetaError(Exception):
    """Base class for all package errors."""


class SpecError(DynzetaError):
    """Invalid user input (bad parameters, malformed job spec)."""


class NotPrime(SpecError):
    pass


class NoIrreducibleFound(DynzetaError):
    """Internal failure of the deterministic modulus search."""


class ScaleExceeded(DynzetaError):
    """An operation would exceed the configured exact-arithmetic budget."""


class DivisionByZeroPoly(DynzetaError):
    pass


class ZeroPolynomial(DynzetaError):
    pass


class ZeroInput(DynzetaError):
    pass


class ZeroElement(DynzetaError):
    pass


class InfinitePeriodicPoints(DynzetaError):
    """Some iterate of the map is the identity, so Per_n is infinite."""


class HypothesisViolated(SpecError):
    """Inputs do not satisfy the preconditions of a valuation identity."""


class InseparableSigma(SpecError):
    pass


class Mismatch(DynzetaError):
    """Two independent computations of the same quantity disagree."""


class NonIntegerOrbitCount(Mismatch):
    """An orbit-count template produced a non-integer; modeling bug."""


class NonIntegerCoefficient(Mismatch):
    """A zeta coefficient failed the integrality invariant."""


class InvalidCombination(SpecError):
    pass


class NotRealizable(SpecError):
    """The map family has no concrete rational-map realization here."""


class SubadditiveConditionViolated(SpecError):
    pass


class NotARoot(SpecError):
    """Supplied series prefix is not an approximate root."""


class SingularRoot(SpecError):
    """Root is too singular for Newton iteration; longer prefix needed."""


class IncompleteEnumeration(DynzetaError):
    """Torsion enumeration did not certify completeness at this scale."""


class NoAdmissibleEll(ScaleExceeded):
    """Prime search exhausted its cap; carries the violated constraint."""
