"""The curve layer on arrays: every lane of a batched call equals the call made
alone, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equichord import (
    ArcLengthParam,
    BilliardState,
    DeformedCircle,
    FourierCurveE2,
    Geometry,
    Harmonic,
    TrigPolynomial,
    billiard_step,
    build_deformed_circle,
    build_e2_curve,
    chord_data,
    circle_curve,
    geodesic_curvature,
    geometry,
    invariant_circle_residual,
    shoot_to_curve,
    validate_partials,
    verify_curve_gutkin,
)
from equichord.errors import OutOfRange
from oracles import curves

parameters = st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=6)


_RING_STEP = 2 * np.pi / 256  # t0 = j * _RING_STEP sits on a sample of the shot ring
_SHORT = [0.005, np.pi - 0.0026]  # chords landing in the ring cell next to t0


@given(curves(), parameters, st.lists(st.floats(0.2, 2.9), min_size=1, max_size=6))
@example(build_e2_curve(FourierCurveE2(c0=1.0, harmonics=(Harmonic(4, 0.1),))),
         [0.0, 37 * _RING_STEP, -1e-42, 1.0, 2.0], [1.2, *_SHORT, *_SHORT])
@example(circle_curve(Geometry.HYPERBOLIC, 1.2), [5 * _RING_STEP, 2.0, 0.0], [_SHORT[1], 1.0, _SHORT[0]])
@settings(max_examples=40, deadline=None)
def test_batched_shots_equal_single_shots(curve, t0, theta):
    """A batch below the lane crossover is shot one lane at a time, so the same
    shots are also tiled into a block at or above it, which runs as numpy lanes."""
    n = min(len(t0), len(theta))
    t0, theta = np.array(t0[:n]), np.array(theta[:n])
    t1, arrival, length = shoot_to_curve(curve, t0, theta)
    for i in range(n):
        assert (t1[i], arrival[i], length[i]) == shoot_to_curve(curve, t0[i], theta[i])
    tiles = -(-geometry._LANE_CROSSOVER // n)
    block = shoot_to_curve(curve, np.tile(t0, tiles), np.tile(theta, tiles))
    assert all(np.array_equal(np.tile(one, tiles), lanes) for one, lanes in zip((t1, arrival, length), block))


@given(curves(), parameters)
@settings(max_examples=40, deadline=None)
def test_array_curvature_equals_scalar(curve, ts):
    kappa = geodesic_curvature(curve, np.array(ts))
    assert [geodesic_curvature(curve, t) for t in ts] == kappa.tolist()


@given(curves(), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_array_t_of_s_equals_scalar(curve, s):
    arclen = ArcLengthParam(curve)
    ss = np.array(s)
    t = arclen.t_of_s(ss)
    assert t.dtype == np.float64
    assert all(arclen.t_of_s(ss[i]) == t[i] for i in range(len(ss)))


@given(curves(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       st.lists(st.floats(0.1, 0.9), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_array_chord_data_equals_scalar(curve, u, v):
    arclen = ArcLengthParam(curve)
    n = min(len(u), len(v))
    x = np.array(u[:n]) * arclen.total_length
    y = x + np.array(v[:n]) * arclen.total_length
    batch = chord_data(curve, x, y, arclen)
    for i in range(n):
        one = chord_data(curve, x[i], y[i], arclen)
        assert all(isinstance(value, float) for value in vars(one).values())
        assert vars(one) == {name: value[i] for name, value in vars(batch).items()}


class TestShapes:
    def test_scalar_shot_gives_floats(self, flower_curve, alpha4):
        assert all(type(v) is float for v in shoot_to_curve(flower_curve, 0.3, alpha4))

    def test_shape_is_kept(self, flower_curve, alpha4):
        t0 = np.linspace(0.0, 6.0, 6).reshape(2, 3)
        out = shoot_to_curve(flower_curve, t0, alpha4)
        assert all(part.shape == (2, 3) for part in out)
        assert out[0][1, 2] == shoot_to_curve(flower_curve, t0[1, 2], alpha4)[0]

    def test_no_shots(self, flower_curve, alpha4):
        assert all(part.shape == (0,) for part in shoot_to_curve(flower_curve, [], alpha4))
        # a verification that shoots no chord would pass vacuously, so it is refused
        with pytest.raises(OutOfRange, match="sample count must be an integer >= 1, got 0$"):
            verify_curve_gutkin(flower_curve, alpha4, 0)

    def test_lane_blocks(self, flower_curve, alpha4, monkeypatch):
        t0 = np.linspace(0.0, 6.0, 11)
        whole = shoot_to_curve(flower_curve, t0, alpha4)
        monkeypatch.setattr("equichord.geometry._LANE_BLOCK", 3)
        assert all(np.array_equal(a, b) for a, b in zip(whole, shoot_to_curve(flower_curve, t0, alpha4)))

    def test_sample_blocks(self, flower_curve, monkeypatch):
        whole = validate_partials(flower_curve, samples=11)
        monkeypatch.setattr("equichord.chords._SAMPLE_BLOCK", 4)
        assert validate_partials(flower_curve, samples=11) == whole


class TestEnsembles:
    def test_state_arrays(self, flower_curve, alpha4):
        s = billiard_step(flower_curve, BilliardState(np.array([0.0, 1.0]), np.array([alpha4, 1.0])))
        one = billiard_step(flower_curve, BilliardState(1.0, 1.0))
        assert (s.t[1], s.theta[1]) == (one.t, one.theta)
        with pytest.raises(OutOfRange):
            BilliardState(np.zeros(2), np.array([1.0, 4.0]))

    @pytest.mark.parametrize("tag", ["E2", "S2", "H2"])
    def test_residual_equals_per_start_orbits(self, tag):
        """Every ensemble size from 1 to 16, below the lane crossover (one lane at a
        time) and above it (a block of lanes), drifts exactly as its starts do
        stepped alone."""
        curve = _dense_curve(tag)
        for n in range(1, 17):
            worst = 0.0
            for t0 in np.linspace(0.0, 2 * np.pi, n, endpoint=False):
                s = BilliardState(float(t0), 1.1)
                for _ in range(4):
                    s = billiard_step(curve, s)
                    worst = max(worst, abs(s.theta - 1.1))
            assert invariant_circle_residual(curve, 1.1, n_steps=4, n_starts=n) == worst, n

    def test_residual_equals_one_start_at_a_time(self, flower_curve, alpha4):
        worst = 0.0
        for t0 in np.linspace(0.0, 2 * np.pi, 5, endpoint=False):
            s = BilliardState(float(t0), alpha4)
            for _ in range(7):
                s = billiard_step(flower_curve, s)
                worst = max(worst, abs(s.theta - alpha4))
        assert invariant_circle_residual(flower_curve, alpha4, n_steps=7, n_starts=5) == worst


def _dense_curve(tag):
    if tag == "E2":
        return build_e2_curve(FourierCurveE2(c0=1.0, harmonics=(Harmonic(3, 0.2, 0.0), Harmonic(5, 0.1, 1.0))))
    g = TrigPolynomial(0.0, (Harmonic(4, 1.0, 0.3), Harmonic(6, 0.5, -1.0)))
    return build_deformed_circle(DeformedCircle(geometry=Geometry(tag), R=0.9, epsilon=0.01, g=g, alpha=1.1))


@pytest.mark.parametrize("tag", ["E2", "S2", "H2"])
def test_dense_lanes(tag):
    """Rare roundings (a scalar's square through pow(), BLAS dot products) show
    up only over many lanes: 2000 curvatures, 200 shots, 2000 chords and 400
    extended-precision inversions, each equal to its one-lane call."""
    curve = _dense_curve(tag)
    ts = np.linspace(-3.0, 9.0, 2000)
    assert geodesic_curvature(curve, ts).tolist() == [geodesic_curvature(curve, t) for t in ts]
    t0, theta = ts[::10], np.linspace(0.4, 2.7, 200)
    t1, arrival, length = shoot_to_curve(curve, t0, theta)
    assert all((t1[i], arrival[i], length[i]) == shoot_to_curve(curve, t0[i], theta[i]) for i in range(200))
    arclen = ArcLengthParam(curve)
    x = np.linspace(0.0, arclen.total_length, 2000, endpoint=False)
    y = x + np.linspace(0.2, 0.8, 2000) * arclen.total_length
    batch = chord_data(curve, x, y, arclen)
    assert all(vars(chord_data(curve, x[i], y[i], arclen)) == {k: v[i] for k, v in vars(batch).items()}
               for i in range(2000))
    s = np.linspace(-5.0, 5.0, 400, dtype=np.longdouble) * arclen.total_length
    assert np.array_equal(arclen.t_of_s(s), [arclen.t_of_s(v) for v in s])
