"""The package's error contract: every rejected input raises one of these.

They all derive from EquichordError, itself a ValueError.  Internal faults
(a solver that does not converge, a failed self-check) raise RuntimeError
instead, so they are never mistaken for bad input.
"""


class EquichordError(ValueError):
    """Base class: the input lies outside what the package's objects admit."""


class OutOfRange(EquichordError):
    """An argument or input field outside its domain, missing or malformed."""


class NonConvex(EquichordError):
    """The curve or polygon is not (strictly) convex."""


class NotClosed(EquichordError):
    """The curve would not close: its data carries a first harmonic."""


class NotAdmissible(EquichordError):
    """The input fails the equiangular condition it was required to meet."""


class Infeasible(EquichordError):
    """The requested family member leaves the positivity polytope."""


class Degenerate(EquichordError):
    """Zero curve speed, coincident chord ends, or a chord that meets nothing."""
