"""Billiard ball map inside closed convex curves.

State is (t, theta): boundary parameter and the angle in (0, pi) made with
the forward tangent on the convex side.  One step shoots the chord and
relaunches at the arrival angle, which encodes the reflection law; the
equiangular invariant circle is then literally {theta = alpha}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .geometry import TWO_PI, ParametricCurve, shoot_to_curve

__all__ = ["BilliardState", "billiard_step", "invariant_circle_residual", "export_orbit"]


@dataclass(frozen=True)
class BilliardState:
    t: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < np.pi:
            raise OutOfRange(f"theta must lie in (0, pi), got {self.theta}")


def billiard_step(curve: ParametricCurve, state: BilliardState) -> BilliardState:
    t1, arrival, _ = shoot_to_curve(curve, state.t, state.theta)
    return BilliardState(t=t1 % TWO_PI, theta=arrival)


def invariant_circle_residual(curve: ParametricCurve, alpha: float,
                              n_steps: int = 100, n_starts: int = 16) -> float:
    """Max |theta_i - alpha| over an ensemble launched on the angle-alpha circle."""
    worst = 0.0
    for t0 in np.linspace(0.0, TWO_PI, int(n_starts), endpoint=False):
        s = BilliardState(t=float(t0), theta=float(alpha))
        for _ in range(int(n_steps)):
            s = billiard_step(curve, s)
            worst = max(worst, abs(s.theta - alpha))
    return worst


def export_orbit(curve: ParametricCurve, s0: BilliardState, n_steps: int) -> list[tuple]:
    """Orbit table; row i holds the state before step i and that step's chord.

    Columns: (step, t, theta, chord_length).  Zero steps gives an empty table.
    """
    rows = []
    s = s0
    for i in range(int(n_steps)):
        t1, arrival, length = shoot_to_curve(curve, s.t, s.theta)
        rows.append((i, s.t % TWO_PI, s.theta, length))
        s = BilliardState(t=t1 % TWO_PI, theta=arrival)
    return rows
