"""Exception hierarchy shared by all equichord modules."""


class EquichordError(Exception):
    """Base class for all domain errors raised by this package."""


class BadRadius(EquichordError):
    """Radius outside the admissible range for the given geometry."""


class DegenerateVelocity(EquichordError):
    """Curve velocity too small to define a direction."""


class NoIntersection(EquichordError):
    """Geodesic shooting failed to find a forward intersection."""


class Tangential(EquichordError):
    """Launch angle too close to tangential for reliable shooting."""


class CoincidentPoints(EquichordError):
    """Chord endpoints coincide (mod curve length)."""


class NonConvex(EquichordError):
    """Operation requires a convex curve or polygon."""


class NotConvex(NonConvex):
    """Curve construction would produce a non-convex curve."""


class NotClosed(EquichordError):
    """Curve construction would produce a non-closed curve."""


class NotAdmissible(EquichordError):
    """Angle fails the admissibility equation for the given harmonic."""


class OutOfRange(EquichordError):
    """Integer argument outside its documented range."""


class WrongOrientation(EquichordError):
    """Polygon vertices are not in counterclockwise order."""


class NotApplicable(EquichordError):
    """Quantity undefined for these parameters (e.g. beta angles at n=2k)."""


class Infeasible(EquichordError):
    """Linear family parameters leave the positivity polytope."""


class CoprimePair(EquichordError):
    """gcd(n, k-1) = 1: the inscribed-arc construction does not apply."""


class ArcSumMismatch(EquichordError):
    """Arc lengths do not sum to the required total."""


class NonPositiveArc(EquichordError):
    """All arcs must be strictly positive."""
