"""Billiard ball map inside closed convex curves.

State is (t, theta): boundary parameter and the angle in (0, pi) made with
the forward tangent on the convex side.  One step shoots the chord and
relaunches at the arrival angle, which encodes the reflection law; the
equiangular invariant circle is then literally {theta = alpha}.

A step launches where the previous one landed, so its shot reuses the point
and frame the curve kept from that landing (see ``shoot_to_curve``):
after the first, every step evaluates the curve only in its Newton rounds
and at its own landing, and gives the result a fresh shot from the same
state gives, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _all, _count
from .errors import OutOfRange
from .geometry import TWO_PI, ParametricCurve, shoot_to_curve

__all__ = ["BilliardState", "billiard_step", "invariant_circle_residual", "export_orbit"]


@dataclass(frozen=True)
class BilliardState:
    """One state, or with arrays for t and theta, an ensemble of states
    stepped together (element i of t goes with element i of theta)."""

    t: float
    theta: float

    def __post_init__(self):
        # a float is one state, checked on floats: ok is then a Python bool
        theta = self.theta if type(self.theta) is float else np.asarray(self.theta)
        ok = (0.0 < theta) & (theta < np.pi)
        if not _all(ok):
            i = int(np.argmin(ok))
            got = self.theta if np.ndim(theta) == 0 else f"{float(theta.flat[i])!r} at element {i}"
            raise OutOfRange(f"theta must lie in (0, pi), got {got}")


def billiard_step(curve: ParametricCurve, state: BilliardState) -> BilliardState:
    t1, arrival, _ = shoot_to_curve(curve, state.t, state.theta)
    return BilliardState(t=t1 % TWO_PI, theta=arrival)


def invariant_circle_residual(curve: ParametricCurve, alpha: float,
                              n_steps: int = 100, n_starts: int = 16) -> float:
    """Max |theta_i - alpha| over an ensemble launched on the angle-alpha circle.

    The starts are stepped together, one batched shot per step.  Raises
    OutOfRange for counts that are not integers, and for fewer than one step
    or one start: a check that shoots no chord would pass vacuously.
    """
    n_steps = _count(n_steps, "invariant_circle_residual's step count", 1)
    n_starts = _count(n_starts, "invariant_circle_residual's start count", 1)
    s = BilliardState(t=np.linspace(0.0, TWO_PI, n_starts, endpoint=False),
                      theta=np.full(n_starts, float(alpha)))
    worst = 0.0
    for _ in range(n_steps):
        s = billiard_step(curve, s)
        # a NaN arrival never gets here: BilliardState refuses it and names the lane
        worst = max(worst, float(np.abs(s.theta - alpha).max()))
    return worst


def export_orbit(curve: ParametricCurve, s0: BilliardState, n_steps: int) -> list[tuple]:
    """Orbit table; row i holds the state before step i and that step's chord.

    Columns: (step, t, theta, chord_length).  Zero steps gives an empty table;
    a negative or non-integer count raises OutOfRange.
    """
    n_steps = _count(n_steps, "export_orbit's step count", 0)
    rows = []
    s = s0
    for i in range(n_steps):
        t1, arrival, length = shoot_to_curve(curve, s.t, s.theta)
        rows.append((i, s.t % TWO_PI, s.theta, length))
        s = BilliardState(t=t1 % TWO_PI, theta=arrival)
    return rows
