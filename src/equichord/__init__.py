"""Curves and polygons with the equiangular chord property on E2, S2, H2."""

from .angles import (
    AngleSolution,
    DiophantineSolution,
    connelly_check,
    contact_angle_from_c,
    f_star,
    gutkin_roots,
    lemma_constants,
    solve_angle,
    solve_restr2,
)
from .billiards import BilliardState, billiard_step, export_orbit, invariant_circle_residual
from .chords import ArcLengthParam, ChordData, chord_data, validate_partials
from .curves import (
    DeformedCircle,
    FourierCurveE2,
    build_deformed_circle,
    build_e2_curve,
    closure_defect,
    linearized_coefficient_check,
    s2_residual_operator,
    verify_curve_gutkin,
)
from .fourier import Harmonic, TrigPolynomial
from .geometry import Geometry, ParametricCurve, Points, circle_curve, geodesic_curvature, shoot_to_curve
from .polygons import (
    CirculantSpectrum,
    GutkinPolygon,
    circulant_spectrum,
    construct_2kk,
    construct_inscribed,
    equiangular_family_basis,
    exists_nontrivial,
    family_member,
    polygon_from_sides,
    verify_gutkin,
)

__version__ = "0.1.0"
