"""Exception hierarchy shared across the package."""


class MulticurveError(Exception):
    """Base class for all errors raised by this package."""


# --- triangulation construction ---

class TriangulationError(MulticurveError):
    pass


class GluingNotInvolution(TriangulationError):
    pass


class SlotGluedToItself(TriangulationError):
    pass


class EulerCharacteristicInvalid(TriangulationError):
    pass


class DisconnectedSurface(EulerCharacteristicInvalid):
    """Gluing data describing more than one surface component."""


class FlowerRequiresNAtLeast4(TriangulationError):
    pass


# --- flips ---

class FlipIllegal(MulticurveError):
    pass


class FlipOnFoldedEdge(FlipIllegal):
    pass


# --- colorings ---

class ColoringError(MulticurveError):
    pass


class LengthMismatch(ColoringError):
    pass


class NotAdmissible(ColoringError):
    pass


class ZeroColoring(ColoringError):
    pass


class EdgeBalanceViolated(ColoringError):
    pass


class TriangulationMismatch(ColoringError):
    pass


# --- polytope complexes ---

class EmptyComplex(MulticurveError):
    pass


class EmptyRelativeComplex(EmptyComplex):
    pass


# --- GIT stability ---

class BadPartition(MulticurveError):
    pass


class BadWeights(MulticurveError):
    pass


class ToricHypothesisFails(MulticurveError):
    pass


# --- quadric parametrization ---

class ZeroBeta(MulticurveError):
    pass


class IndexOutOfRange(MulticurveError):
    pass


class TauDegenerate(MulticurveError):
    pass


class NotUnitDeterminant(MulticurveError):
    pass
