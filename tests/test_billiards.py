import numpy as np
import pytest

from equichord import (
    BilliardState,
    Geometry,
    billiard_step,
    billiards,
    circle_curve,
    export_orbit,
    invariant_circle_residual,
)
from equichord.errors import OutOfRange


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
