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
    """One state, or with arrays for t and theta, an ensemble of states
    stepped together (element i of t goes with element i of theta)."""

    t: float
    theta: float

    def __post_init__(self):
        theta = np.asarray(self.theta)
        bad = ~((0.0 < theta) & (theta < np.pi))
        if bad.any():
            i = int(np.argmax(bad))
            got = self.theta if theta.ndim == 0 else f"{float(theta.flat[i])!r} at element {i}"
            raise OutOfRange(f"theta must lie in (0, pi), got {got}")


def billiard_step(curve: ParametricCurve, state: BilliardState) -> BilliardState:
    t1, arrival, _ = shoot_to_curve(curve, state.t, state.theta)
    return BilliardState(t=t1 % TWO_PI, theta=arrival)


def invariant_circle_residual(curve: ParametricCurve, alpha: float,
                              n_steps: int = 100, n_starts: int = 16) -> float:
    """Max |theta_i - alpha| over an ensemble launched on the angle-alpha circle.

    The starts are stepped together, one batched shot per step.
    """
    s = BilliardState(t=np.linspace(0.0, TWO_PI, int(n_starts), endpoint=False),
                      theta=np.full(int(n_starts), float(alpha)))
    worst = 0.0
    for _ in range(int(n_steps)):
        s = billiard_step(curve, s)
        # a NaN arrival never gets here: BilliardState refuses it and names the lane
        worst = float(np.max(np.abs(s.theta - alpha), initial=worst))
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
