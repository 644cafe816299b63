"""Curves and polygons with the equiangular chord property on E2, S2, H2.

``import equichord`` runs none of the package's modules.  Each is registered in
``sys.modules`` unexecuted (``importlib.util.LazyLoader``) and runs on its first
attribute access, and the names below are read from their modules on use, so a
command loads numpy only when it computes with it (README, "CLI").
"""

import importlib.util
import sys

__version__ = "0.1.0"

_NAMES = {
    "angles": ("AngleSolution", "DiophantineSolution", "connelly_check", "contact_angle_from_c",
               "f_star", "gutkin_roots", "lemma_constants", "solve_angle", "solve_restr2"),
    "billiards": ("BilliardState", "billiard_step", "export_orbit", "invariant_circle_residual"),
    "chords": ("ArcLengthParam", "ChordData", "chord_data", "validate_partials"),
    "curves": ("DeformedCircle", "FourierCurveE2", "build_deformed_circle", "build_e2_curve",
               "closure_defect", "s2_residual_operator", "verify_curve_gutkin"),
    "fourier": ("Harmonic", "TrigPolynomial"),
    "geometry": ("Geometry", "ParametricCurve", "Points", "circle_curve", "geodesic_curvature",
                 "shoot_to_curve"),
    "polygons": ("CirculantSpectrum", "GutkinPolygon", "circulant_spectrum", "construct_2kk",
                 "construct_inscribed", "equiangular_family_basis", "exists_nontrivial",
                 "family_member", "polygon_from_sides", "verify_gutkin"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_HOME)


def _lazy(name: str):
    """The submodule ``name``, in sys.modules, to be executed on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# cli is left out: ``python -m equichord.cli`` runs it as __main__, which a registered
# equichord.cli would make run twice
errors, core, fourier, geometry, angles, chords, curves, billiards, polygons = map(
    _lazy, ("errors", "core", "fourier", "geometry", "angles", "chords", "curves", "billiards",
            "polygons"))


def __getattr__(name: str):
    """A public name, read from its module, which runs first if it has not yet.  Nothing is
    cached here, so a name rebound in its module (a tracer's wrapper) shows through."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
