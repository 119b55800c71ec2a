"""Exception hierarchy shared across the package."""


class HermwalkError(Exception):
    """Base class for all hermwalk errors."""


# linalg
class NotHermitian(HermwalkError):
    pass


class NoConvergence(HermwalkError):
    pass


class NotAnticommuting(HermwalkError):
    pass


class NotPositive(HermwalkError):
    pass


class NotUnitary(HermwalkError):
    pass


# graph construction and I/O
class IndexOutOfRange(HermwalkError):
    pass


class ConjugateMismatch(HermwalkError):
    pass


class DuplicateEdge(HermwalkError):
    pass


class NotHermitianCirculant(HermwalkError):
    pass


class DegenerateOrder(HermwalkError):
    pass


class DuplicateAlpha(HermwalkError):
    pass


class OrderTooLarge(HermwalkError):
    pass


class DimensionMismatch(HermwalkError):
    pass


class GraphFormatError(HermwalkError):
    pass


# spectra
class NonRealEigenvalue(HermwalkError):
    pass


class TraceNotZero(HermwalkError):
    pass


class WeightsInvalid(HermwalkError):
    pass


# transfer
class InvalidTarget(HermwalkError):
    pass


class PhaseRangeExceeded(ValueError):
    """t * max|lambda| passes 2**32, where float64 phases lose about 5e-7 rad.

    A ValueError, not a HermwalkError: the time or horizon is the caller's
    argument, and a shorter one is answered."""


# swaut and circulant_pst
class DisconnectedSupport(HermwalkError):
    pass


class UnsupportedGraph(HermwalkError):
    pass


class SearchBudgetExhausted(UnsupportedGraph):
    """A bounded search (switching placements, LLL iterations) hit its fixed budget."""
