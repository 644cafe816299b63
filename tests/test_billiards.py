from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichord import (
    BilliardState,
    Geometry,
    billiard_step,
    billiards,
    build_e2_curve,
    circle_curve,
    export_orbit,
    geometry,
    invariant_circle_residual,
    shoot_to_curve,
)
from equichord.errors import OutOfRange
from equichord.geometry import TWO_PI
from oracles import curves


class TestBilliardStep:
    def test_circle_rotation_number(self):
        curve = circle_curve(Geometry.EUCLIDEAN, 1.0)
        s = BilliardState(t=0.1, theta=np.pi / 4)
        s1 = billiard_step(curve, s)
        # on a circle the map is a rigid rotation by 2 theta
        assert s1.t == pytest.approx(0.1 + np.pi / 2, abs=1e-10)
        assert s1.theta == pytest.approx(np.pi / 4, abs=1e-10)

    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            BilliardState(t=0.0, theta=0.0)
        with pytest.raises(ValueError):
            BilliardState(t=0.0, theta=np.pi)

    def test_bad_lane_named(self):
        with pytest.raises(OutOfRange, match="got nan at element 2"):
            BilliardState(t=np.zeros(4), theta=np.array([0.5, 1.0, np.nan, 1.0]))


class TestInvariantCircle:
    def test_gutkin_curve_preserves_angle(self, flower_curve, alpha4):
        res = invariant_circle_residual(flower_curve, alpha4, n_steps=20, n_starts=4)
        assert res < 1e-10

    def test_generic_angle_drifts(self, flower_curve):
        res = invariant_circle_residual(flower_curve, 1.0, n_steps=20, n_starts=4)
        assert res > 1e-4

    def test_circle_every_angle_invariant(self):
        curve = circle_curve(Geometry.SPHERICAL, np.pi / 3)
        assert invariant_circle_residual(curve, 0.9, n_steps=10, n_starts=3) < 1e-9

    def test_nan_arrival_refused(self, flower_curve, alpha4, monkeypatch):
        shoot = billiards.shoot_to_curve

        def lossy(curve, t0, theta):
            t1, arrival, length = shoot(curve, t0, theta)
            return t1, np.where(np.arange(arrival.size) == 1, np.nan, arrival), length

        monkeypatch.setattr(billiards, "shoot_to_curve", lossy)
        with pytest.raises(OutOfRange, match="at element 1"):
            invariant_circle_residual(flower_curve, alpha4, n_steps=3, n_starts=4)


class TestExportOrbit:
    def test_zero_steps_empty(self, flower_curve, alpha4):
        assert export_orbit(flower_curve, BilliardState(0.0, alpha4), 0) == []

    def test_rows_shape(self, flower_curve, alpha4):
        rows = export_orbit(flower_curve, BilliardState(0.2, alpha4), 5)
        assert len(rows) == 5
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        for _, t, theta, length in rows:
            assert 0 <= t < 2 * np.pi and 0 < theta < np.pi and length > 0

    def test_gutkin_orbit_advances_by_2alpha(self, flower_curve, alpha4):
        rows = export_orbit(flower_curve, BilliardState(0.0, alpha4), 4)
        ts = [r[1] for r in rows]
        for i in range(1, len(ts)):
            gap = (ts[i] - ts[i - 1]) % (2 * np.pi)
            assert gap == pytest.approx(2 * alpha4, abs=1e-10)


def _fresh_shot(curve, t0, theta):
    """shoot_to_curve on a copy of the curve, which holds no landing: the launch is evaluated."""
    return shoot_to_curve(replace(curve), t0, theta)


_STARTS = st.one_of(st.floats(0.0, TWO_PI), st.floats(0.0, 1e-6),
                    st.floats(0.0, 1e-6).map(lambda gap: TWO_PI - gap))


class TestRelaunch:
    """A billiard step launches from the point and frame its previous step
    evaluated at the landing; each step must equal a shot that evaluates them."""

    @given(curves(), _STARTS,
           st.one_of(st.sampled_from([0.005, np.pi - 0.005]), st.floats(0.3, 2.8)),
           st.sampled_from([3, geometry._LANE_BLOCK]))
    @settings(max_examples=40, deadline=None)
    def test_steps_equal_fresh_shots(self, curve, t0, theta, block):
        with mock.patch.object(geometry, "_LANE_BLOCK", block):
            rows = export_orbit(curve, BilliardState(t0, theta), 6)
            t, th = t0 % TWO_PI, theta
            for _, t_row, theta_row, length in rows:
                t1, arrival, fresh_length = _fresh_shot(curve, t, th)
                assert (t_row, theta_row, length) == (t, th, fresh_length)
                t, th = t1 % TWO_PI, arrival

            # an ensemble of 7 starts: blocks of 3, 3 and 1 lanes with the patched block
            s = BilliardState((t0 + np.arange(7) * 0.9) % TWO_PI, np.full(7, theta))
            for _ in range(4):
                nxt = billiard_step(curve, s)
                t1, arrival, _ = _fresh_shot(curve, s.t, s.theta)
                assert np.array_equal(nxt.t, t1 % TWO_PI) and np.array_equal(nxt.theta, arrival)
                s = nxt

            drift = invariant_circle_residual(curve, theta, n_steps=4, n_starts=7)
            ts, thetas, worst = np.linspace(0.0, TWO_PI, 7, endpoint=False), np.full(7, theta), 0.0
            for _ in range(4):
                t1, thetas, _ = _fresh_shot(curve, ts, thetas)
                ts = t1 % TWO_PI
                worst = max(worst, float(np.max(np.abs(thetas - theta))))
            assert drift == worst

    def test_jet_evaluations_per_step(self, flower_spec, alpha4):
        """A fresh shot evaluates the jet at its launch and in two Newton rounds; it
        lands at Newton's root and reuses the last round's evaluation where the last
        step rounded away, and evaluates the root where it did not.  A relaunched
        step skips the launch.  The curve's first shot also evaluates its ring, once.
        An ensemble below the lane crossover is shot one lane at a time, one at or
        above it as one block of lanes, which evaluates the root when any lane needs it."""
        curve = build_e2_curve(flower_spec)
        jet, calls = curve.jet, []

        def counting(t, order):
            calls.append(np.shape(t))
            return jet(t, order)

        curve = replace(curve, jet=counting)
        calls.clear()  # construction looks at the jet's type once
        t1, arrival, _ = shoot_to_curve(curve, 0.3, alpha4)
        assert calls.count((geometry._SHOT_GRID,)) == 1
        calls.remove((geometry._SHOT_GRID,))
        assert len(calls) == 3
        calls.clear()
        shoot_to_curve(curve, t1, arrival)
        assert len(calls) == 2
        calls.clear()
        assert len(export_orbit(curve, BilliardState(0.3, alpha4), 3)) == 3
        assert len(calls) == 3 + 2 + 2 + 1  # one of the three landings evaluates its root
        calls.clear()
        invariant_circle_residual(curve, alpha4, n_steps=3, n_starts=4)
        assert calls.count(()) == len(calls) == 4 * (3 + 2 + 2) + 3
        calls.clear()
        n = geometry._LANE_CROSSOVER
        invariant_circle_residual(curve, alpha4, n_steps=3, n_starts=n)
        assert calls.count((n,)) == len(calls) == (3 + 1) + (2 + 1) + (2 + 1)
