"""What every layer shares and a command on Python floats needs: the geometry tags, the
input checks and the one bracketed Newton loop.

This module imports no numpy, so ``solve-angle`` runs on ``math`` alone.  Numbers
that reach an array branch here are numpy's, and an array means numpy is already
loaded: those branches read it from ``sys.modules``.
"""

from __future__ import annotations

import enum
import math
import sys

from .errors import OutOfRange

__all__ = ["Geometry"]


# what a float path reads without numpy: cs_K on a Python float, and max_radius, the bound
# on circle radii: pi/2 on S2, and on H2 arccosh of the largest float, below which sinh and
# cosh stay finite.  It is numpy's float(np.arccosh(np.finfo(float).max)) as a literal:
# math.acosh(sys.float_info.max) is one ulp lower, 710.4758600739439
_FLOATS = {
    "E2": (lambda r: 1.0, math.inf),
    "S2": (math.cos, math.pi / 2),
    "H2": (math.cosh, 710.475860073944),
}


class Geometry(enum.Enum):
    """E2, S2 or H2 (curvature K = 0, 1, -1).

    Each member carries ``cs``, cs_K on a Python float (1, ``math.cos``,
    ``math.cosh``), and ``max_radius``.  ``kernel``, the numpy table of
    ``geometry.py``, is set on every member when that module runs, as a plain
    attribute: the package's ``Geometry`` is read from there, and a member taken
    from this module alone has no kernel before.
    """

    EUCLIDEAN = "E2"
    SPHERICAL = "S2"
    HYPERBOLIC = "H2"

    def __init__(self, tag: str):
        self.cs, self.max_radius = _FLOATS[tag]


def _check_radius(geometry: Geometry, radius) -> float:
    """Circle radius as a float, inside (0, geometry.max_radius)."""
    bound = geometry.max_radius
    if radius is None or not 0.0 < radius < bound:
        raise OutOfRange(f"{geometry.value} radius must lie in (0, {bound!r}), got {radius!r}")
    return float(radius)


def _count(n, what: str, least: int | None = None) -> int:
    """n as an int; OutOfRange for NaN, an infinity, a fraction (3.0 passes), a value
    that is no number (None, a string that int() cannot read) or, when ``least`` is
    given, a value below it."""
    try:
        i = int(n)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != n or (least is not None and i < least):
        bound = "" if least is None else f" >= {least}"
        raise OutOfRange(f"{what} must be an integer{bound}, got {n!r}")
    return i


def _positive(x, what: str):
    """OutOfRange unless x is finite and positive."""
    if not 0.0 < x < math.inf:  # NaN fails it too
        raise OutOfRange(f"{what} must be finite and positive, got {x!r}")


# ---------------------------------------------------------------------------
# bracketed root finding


_NEWTON_ROUNDS = 60  # a lane not stopped after this many rounds raises
# a lane stops on a step below this times max(1, |x|); a Python float, since an np.float64
# would make every test of a lane of floats a numpy bool
_NEWTON_TOL = 8 * 2.0 ** -52


class _NaNValue(RuntimeError):
    """A running Newton lane's function value is NaN at x."""

    def __init__(self, x: float):
        super().__init__(f"the function value at x={x!r} is NaN")
        self.x = x


def _newton(f, neg, pos, x):
    """Roots of f, one per lane, by Newton's method safeguarded by bisection.

    neg, pos and the first iterate x are numbers, or arrays of one shape, with
    f(neg) < 0 < f(pos) and x between them; ``f(x)`` returns (f, f') at an x
    of that shape.  One body runs them all: a lane of Python floats, or a numpy
    scalar, stays on numbers of its type.  A lane stops when its step is below
    _NEWTON_TOL max(1, |x|), 8 eps of double.  Otherwise the end of f's sign
    moves to x, and a step landing outside the bracket, or longer than half
    the step two rounds before (a bisection's step is half its bracket),
    becomes the bracket's midpoint; a bracket below that tolerance stops the
    lane.  The second test ends cycles that shrink the bracket by a little
    each round: Newton jumping across the root of an arctan, or across a root
    whose f is rounding noise on a flat slope.  Lanes run in place until the
    slowest stops; a stopped lane is still evaluated but keeps its root, so
    each lane takes the steps it would take alone.  Raises _NaNValue, a
    RuntimeError naming x, on a NaN f in a running lane, and RuntimeError
    after _NEWTON_ROUNDS rounds.
    """
    before = last = math.inf  # the lengths of the last two steps
    done = False  # each lane's stop, as a bool or a bool array once a round has run
    for _ in range(_NEWTON_ROUNDS):
        y, dy = f(x)
        step = y / dy
        x_new = _where(done, x, x - step)  # a stopped lane keeps its root
        size = abs(step)
        done = done | (size < _NEWTON_TOL) | (size < _NEWTON_TOL * abs(x_new))  # below TOL max(1, |x|)
        if _all(done):
            return x_new
        low = y < 0
        neg, pos = _where(low, x, neg), _where(low, pos, x)
        # a running lane's NaN f fails keep too
        keep = done | (((x_new - neg) * (x_new - pos) < 0) & (size <= 0.5 * before))
        if not _all(keep):
            nan = _where(keep, False, y != y)
            if _any(nan):
                raise _NaNValue(_first(nan, x))
            x_new = _where(keep, x_new, (neg + pos) / 2)
            size = _where(keep, size, (pos - neg) / 2)
            width = abs(pos - neg)
            done = _where(keep, done, (width < _NEWTON_TOL) | (width < _NEWTON_TOL * abs(x_new)))
            if _all(done):
                return x_new
        before, last = last, size
        x = x_new
    running = _where(done, False, True)
    raise RuntimeError(f"Newton did not converge in {_NEWTON_ROUNDS} rounds, last x={_first(running, x)!r}")


def _first(mask, x) -> float:
    """x at the first lane where mask is set, as a float: x itself where mask is a Python bool."""
    return float(x) if type(mask) is bool else float(sys.modules["numpy"].extract(mask, x)[0])


def _all(ok) -> bool:
    """Whether a bool, a numpy bool scalar or every element of a bool array is set.
    ``np.all`` makes a scalar an array first, about 1.5 us against 0.1 us here."""
    if type(ok) is bool:  # a lane of floats' test, answered at a third of the cost below
        return ok
    np = sys.modules["numpy"]
    return np.count_nonzero(ok) == ok.size if isinstance(ok, np.ndarray) else bool(ok)


def _any(ok) -> bool:
    """Whether a bool, or any element of a bool array, is set (as ``_all``)."""
    return ok if type(ok) is bool else bool(sys.modules["numpy"].count_nonzero(ok))


def _where(c, a, b):
    """np.where, but a Python or numpy bool ``c`` picks a or b itself: a lane of floats, or of
    numpy scalars, stays on its own type."""
    if type(c) is bool:  # a lane of floats' test, answered first
        return a if c else b
    np = sys.modules["numpy"]
    return np.where(c, a, b) if isinstance(c, np.ndarray) else (a if c else b)
