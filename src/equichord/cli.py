"""Command-line front end.

Output is deterministic by construction: JSON is rendered by a small local
serializer with fixed key order and floats printed with 17 significant
digits, CSV rows use the same float format, and SVG files are plain static
documents.  Identical flags therefore give byte-identical output.

Exit codes: 0 on success, 1 on an internal fault (a bug: the traceback is
shown), 2 on a usage error (a command line click cannot parse, or a missing
or conflicting option), 3 on a domain error, a parsed value outside its
domain: an EquichordError, raised by the library or by the reading of a spec
file, a polygon file or an option, or an OSError on a file.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import angles, billiards, curves, polygons
from .chords import ArcLengthParam, validate_partials
from .errors import EquichordError, NotAdmissible, OutOfRange
from .fourier import Harmonic, TrigPolynomial
from .geometry import Geometry, _count, _positive, circle_curve, geodesic_curvature

DEFAULT_TOL = 1e-9
_CURVATURE_SAMPLES = 4096  # parameter samples behind curve build's min_geodesic_curvature

_GEOMETRY_TAGS = {
    "euclidean": Geometry.EUCLIDEAN, "E2": Geometry.EUCLIDEAN,
    "spherical": Geometry.SPHERICAL, "S2": Geometry.SPHERICAL,
    "hyperbolic": Geometry.HYPERBOLIC, "H2": Geometry.HYPERBOLIC,
}


# ---------------------------------------------------------------------------
# deterministic rendering


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def to_json(obj, indent: int = 0) -> str:
    """JSON with insertion key order and 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {to_json(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rows = [f"{pad}  {to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _emit(text: str, out: str | None):
    click.echo(text)
    if out:
        _write(out, text)


def _svg_document(polylines) -> str:
    """800x800 SVG; polylines is a list of (Nx2 array, color, closed)."""
    pts = np.vstack([p for p, _, _ in polylines])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    margin = 0.05 * span
    scale = 800.0 / (span + 2 * margin)

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 800">']
    for p, color, closed in polylines:
        p = np.asarray(p, float)
        x, y = (p[:, 0] - lo[0] + margin) * scale, 800.0 - (p[:, 1] - lo[1] + margin) * scale
        coords = " ".join(f"{xi:.3f},{yi:.3f}" for xi, yi in zip(x, y))
        tag = "polygon" if closed else "polyline"
        lines.append(
            f'<{tag} fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def _polygon_svg(vertices: np.ndarray, k: int) -> str:
    v = np.asarray(vertices, float)
    n = len(v)
    shapes = [(np.vstack([v[i], v[(i + k) % n]]), "gray", False) for i in range(n)]
    shapes.append((v, "black", True))
    return _svg_document(shapes)


# ---------------------------------------------------------------------------
# outside input


def _read(source: str, parse, raw):
    """parse(raw) on input from outside: a file or an option.

    This is the one place where a failure to parse is bad input rather than a
    bug; it becomes OutOfRange naming the source.  parse must only convert
    (json.load, float, int, indexing), never build library objects.
    """
    try:
        return parse(raw)
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise OutOfRange(f"cannot read {source}: {detail}") from None


def _field(data: dict, key: str, what: str, parse, *default):
    """parse(data[key]); parse(default) when the key is absent and a default is given."""
    if key not in data and not default:
        raise OutOfRange(f"{what} is missing required key {key!r}")
    return _read(f"{what} field {key!r}", parse, data.get(key, *default))


def _load_object(path: str, what: str) -> dict:
    """The JSON object held by a spec or polygon file."""
    with open(path) as fh:
        data = _read(f"{what} {path}", json.load, fh)
    if not isinstance(data, dict):
        raise OutOfRange(f"{what} {path} must hold a JSON object, not {type(data).__name__}")
    return data


def _parse_floats(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s.strip()]


# ---------------------------------------------------------------------------
# curve specs


def _harmonic_triples(raw) -> tuple:
    """[{"k": .., "amp": .., "phase": ..}, ...] as (k, amp, phase) triples."""
    return tuple((_count(h["k"], "harmonic order"), float(h["amp"]), float(h.get("phase", 0.0)))
                 for h in raw)


def _alpha_ref(value):
    """None, a contact angle as a float, or the k of 'auto-kN' as an int."""
    if value is None:
        return None
    if isinstance(value, str) and value.startswith("auto-k"):
        return int(value[len("auto-k"):])
    return float(value)


def _resolve_alpha(ref, geometry: Geometry, radius: float | None, option: str | None) -> float:
    """A float inside (0, pi) passes through; an 'auto-kN' k gives the first
    root of k tan c = tan kc, converted to a contact angle on S2/H2; None, no
    alpha at all, is refused, naming the command's angle option."""
    if ref is None:
        raise OutOfRange(f"spec has no alpha; pass {option} or add it to the spec")
    if isinstance(ref, float):
        if not 0.0 < ref < np.pi:
            raise OutOfRange(f"alpha must lie in (0, pi), got {ref!r}")
        return ref
    roots = angles.gutkin_roots(ref)
    if not roots:
        raise NotAdmissible(f"k tan c = tan kc has no roots for k={ref}")
    return angles.contact_angle_from_c(geometry, radius, roots[0])


def _load_curve(path: str, option: str | None = None, text: str | None = None):
    """(geometry, spec, curve, alpha) from a curve spec file.

    No curve needs an angle; a command that shoots at alpha passes its angle
    option, whose text, when given, replaces the spec's alpha.  alpha is None
    when neither the spec nor the option gives one, and then a command with
    an angle option is refused.
    """
    ref = None if text is None else _read(option, _alpha_ref, text)
    data = _load_object(path, "curve spec")
    tag = data.get("geometry", "euclidean")
    if not isinstance(tag, str) or tag not in _GEOMETRY_TAGS:
        raise OutOfRange(f"unknown geometry tag {tag!r}")
    geometry = _GEOMETRY_TAGS[tag]
    if text is None:
        ref = _field(data, "alpha", "curve spec", _alpha_ref, None)

    if geometry is Geometry.EUCLIDEAN:
        radius = None
        spec = curves.FourierCurveE2(
            c0=_field(data, "c0", "curve spec", float),
            harmonics=_field(data, "harmonics", "curve spec", _harmonic_triples, ()))
    else:
        radius = _field(data, "R", "curve spec", float)
        epsilon = _field(data, "epsilon", "curve spec", float, 0.0)
        g = _field(data, "g", "curve spec", _harmonic_triples, ())
    alpha = None if ref is None and option is None else _resolve_alpha(ref, geometry, radius, option)
    if geometry is Geometry.EUCLIDEAN:
        return geometry, spec, curves.build_e2_curve(spec), alpha
    spec = curves.DeformedCircle(geometry=geometry, R=radius, epsilon=epsilon, alpha=alpha,
                                 g=TrigPolynomial(0.0, tuple(Harmonic(*h) for h in g)))
    return geometry, spec, curves.build_deformed_circle(spec), alpha


# ---------------------------------------------------------------------------
# commands


class _Main(click.Group):
    """Runs every command: an EquichordError or an OSError exits 3 with one
    ``error:`` line; any other exception is a bug and keeps its traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (EquichordError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main():
    """Equiangular-chord curves and polygons: construct, verify, classify."""


@main.command("solve-angle")
@click.option("--k", type=int, required=True, help="Diagonal/harmonic index, k >= 2.")
@click.option("--geometry", type=click.Choice(["E2", "S2", "H2"]), default="E2")
@click.option("--radius", type=float, default=None,
              help="Circle radius (required for S2/H2 contact angles).")
@click.option("--out", type=click.Path(), default=None)
def cmd_solve_angle(k, geometry, radius, out):
    """Solve k tan c = tan(kc) and report contact angles."""
    sols = angles.solve_angle(k, Geometry(geometry), radius)
    payload = [
        {"k": s.k, "geometry": s.geometry.value, "c": s.c, "alpha": s.alpha,
         "residual": s.residual, "radius": s.radius}
        for s in sols
    ]
    _emit(to_json(payload), out)


@main.group()
def polygon():
    """Gutkin (n,k)-gon constructions and checks."""


@polygon.command("construct")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--arcs", type=str, default=None,
              help="Comma-separated arcs summing to 2 pi gcd(n,k-1)/n (inscribed construction).")
@click.option("--params", type=str, default=None,
              help="Comma-separated free side lengths for the n = 2k construction.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--svg", type=click.Path(), default=None)
def cmd_polygon_construct(n, k, arcs, params, out, svg):
    """Construct a Gutkin polygon (inscribed arcs, or free sides when n = 2k)."""
    if arcs is not None:
        p = polygons.construct_inscribed(n, k, _read("--arcs", _parse_floats, arcs))
    elif n == 2 * k:
        free = _read("--params", _parse_floats, params) if params else []
        p = polygons.construct_2kk(k, free)
    else:
        raise click.UsageError("--arcs is required unless n = 2k (then --params)")
    _emit(to_json({"n": p.n, "k": p.k, "alpha": p.alpha, "vertices": p.vertices}), out)
    if svg:
        _write(svg, _polygon_svg(p.vertices, p.k))


@polygon.command("verify")
@click.option("--in", "in_path", type=click.Path(exists=True), default=None,
              help="Polygon JSON produced by construct.")
@click.option("--regular", type=int, default=None, help="Use a regular n-gon instead.")
@click.option("--k", type=int, default=None, help="Diagonal index (default: from file).")
@click.option("--tol", type=float, default=DEFAULT_TOL)
@click.option("--out", type=click.Path(), default=None)
def cmd_polygon_verify(in_path, regular, k, tol, out):
    """Measure the 2n contact angles of the k-diagonals."""
    if (in_path is None) == (regular is None):
        raise click.UsageError("exactly one of --in / --regular is required")
    if in_path is not None:
        data = _load_object(in_path, "polygon file")
        vertices = _field(data, "vertices", "polygon file", lambda v: np.asarray(v, dtype=float))
        if k is None:
            k = _field(data, "k", "polygon file", lambda value: _count(value, "k"))
    else:
        vertices = polygons.regular_polygon(regular)
        if k is None:
            raise click.UsageError("--k is required with --regular")
    rep = polygons.verify_gutkin(vertices, k, tol=tol)
    payload = {"n": rep["n"], "k": rep["k"], "is_gutkin": rep["is_gutkin"],
               "alpha": rep["alpha_measured"], "max_residual": rep["max_residual"],
               "tol": tol}
    _emit(to_json(payload), out)


@polygon.command("classify")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_polygon_classify(n, k, out):
    """Existence and dimension of nontrivial equiangular Gutkin (n,k)-gons."""
    spec = polygons.circulant_spectrum(n, k)
    restr2 = [s.r for s in angles.solve_restr2(n, k)]
    payload = {"n": n, "k": k,
               "exists_nontrivial": polygons.exists_nontrivial(n, k),
               "M": spec.M, "zero_set": list(spec.zero_set),
               "restr2_roots": restr2}
    _emit(to_json(payload), out)


@polygon.command("family")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--coeffs", type=str, default=None,
              help="Comma-separated coefficients in the kernel basis.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--svg", type=click.Path(), default=None)
def cmd_polygon_family(n, k, coeffs, out, svg):
    """Kernel basis of equiangular deformations, optionally a family member."""
    basis = polygons.equiangular_family_basis(n, k)
    payload = {"n": n, "k": k, "dimension": len(basis), "basis": basis}
    if coeffs is not None:
        payload["sides"] = polygons.family_member(n, k, _read("--coeffs", _parse_floats, coeffs))
        payload["vertices"] = polygons.polygon_from_sides(payload["sides"])
    _emit(to_json(payload), out)
    if svg and coeffs is not None:
        _write(svg, _polygon_svg(payload["vertices"], k))


@main.group()
def curve():
    """Gutkin curves from spec JSON files."""


@curve.command("build")
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--svg", type=click.Path(), default=None)
def cmd_curve_build(spec_path, out, svg):
    """Build the curve and report its length and least geodesic curvature."""
    geometry, spec, curve, alpha = _load_curve(spec_path)
    euclidean = geometry is Geometry.EUCLIDEAN
    arclen = ArcLengthParam(curve)
    ts = np.linspace(0.0, 2 * np.pi, _CURVATURE_SAMPLES, endpoint=False)
    kappa = geodesic_curvature(curve, ts)
    payload = {"geometry": geometry.value, "kind": "fourier" if euclidean else "deformed_circle",
               "length": arclen.total_length, "min_geodesic_curvature": float(kappa.min())}
    if alpha is not None:
        payload["alpha"] = alpha
    _emit(to_json(payload), out)
    if svg:
        ts = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        if euclidean:
            plane = np.asarray(curve.point(ts), float)
        else:  # the geodesic polar image
            r = spec.R + spec.epsilon * spec.g(ts)
            plane = np.stack([r * np.cos(ts), r * np.sin(ts)], axis=-1)
        _write(svg, _svg_document([(plane, "black", True)]))


@curve.command("verify")
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True)
@click.option("--alpha", type=str, default=None,
              help="Contact angle (float or auto-kN); overrides the spec.")
@click.option("--samples", type=int, default=None, help="Default max(64, 16 k), k the highest order.")
@click.option("--tol", type=float, default=DEFAULT_TOL)
@click.option("--out", type=click.Path(), default=None)
def cmd_curve_verify(spec_path, alpha, samples, tol, out):
    """Shoot chords at angle alpha and report the worst arrival-angle defect."""
    _positive(tol, "tol")
    geometry, _, curve, a = _load_curve(spec_path, "--alpha", alpha)
    rep = curves.verify_curve_gutkin(curve, a, n_samples="band" if samples is None else samples)
    payload = {"geometry": geometry.value, "alpha": a,
               "n_samples": rep["n_samples"],
               "max_angle_residual": rep["max_angle_residual"],
               "is_gutkin": rep["max_angle_residual"] < tol, "tol": tol}
    _emit(to_json(payload), out)


@curve.command("residual")
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True)
@click.option("--operator", type=click.Choice(["E2", "S2", "H2"]), required=True)
@click.option("--alpha", type=str, default=None)
@click.option("--grid", type=int, default=4096)
@click.option("--out", type=click.Path(), default=None)
def cmd_curve_residual(spec_path, operator, alpha, grid, out):
    """Max residual of the functional chord equation on a uniform grid."""
    grid = _count(grid, "--grid", 1)
    geometry, spec, _, a = _load_curve(spec_path, "--alpha", alpha)
    if Geometry(operator) is not geometry:
        raise OutOfRange("operator geometry must match the spec geometry")
    ts = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    if geometry is Geometry.EUCLIDEAN:
        rho = spec.rho
        f = TrigPolynomial(rho.c0 * np.sin(a),
                           tuple(Harmonic(h.k, h.amp * np.sin(a), h.phase)
                                 for h in rho.harmonics))
        c, scale = a, 1.0
    else:
        f = TrigPolynomial(spec.f_star,
                           tuple(Harmonic(h.k, spec.epsilon * h.amp, h.phase)
                                 for h in spec.g.harmonics))
        c, scale = spec.c, spec.a
    res = curves.s2_residual_operator(f, a, c, scale, geometry)(ts)
    payload = {"geometry": geometry.value, "operator": operator, "alpha": a,
               "grid": grid, "max_residual": float(np.abs(res).max())}
    _emit(to_json(payload), out)


@main.group()
def billiard():
    """Billiard map inside a curve spec."""


@billiard.command("orbit")
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True)
@click.option("--t0", type=float, default=0.0)
@click.option("--theta", type=str, default=None,
              help="Launch angle (float or auto-kN); defaults to the spec alpha.")
@click.option("--steps", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_billiard_orbit(spec_path, t0, theta, steps, out):
    """Iterate the billiard map and export the orbit as CSV."""
    _, _, curve, angle = _load_curve(spec_path, "--theta", theta)
    rows = billiards.export_orbit(curve, billiards.BilliardState(t=t0, theta=angle), steps)
    lines = ["step,t,theta,chord_length"]
    for step, t, th, length in rows:
        lines.append(f"{step},{_fmt(t)},{_fmt(th)},{_fmt(length)}")
    _emit("\n".join(lines), out)


@main.group()
def chords():
    """Generating-function checks."""


@chords.command("validate")
@click.option("--spec", "spec_path", type=click.Path(exists=True), default=None)
@click.option("--circle", type=click.Choice(["E2", "S2", "H2"]), default=None)
@click.option("--radius", type=float, default=None)
@click.option("--samples", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None)
def cmd_chords_validate(spec_path, circle, radius, samples, seed, out):
    """Check the closed-form partials of L(x,y) against finite differences."""
    if (spec_path is None) == (circle is None):
        raise click.UsageError("exactly one of --spec / --circle is required")
    if circle is not None:
        if radius is None:
            raise click.UsageError("--radius is required with --circle")
        cv = circle_curve(Geometry(circle), radius)
    else:
        cv = _load_curve(spec_path)[2]
    report = validate_partials(cv, samples=samples, seed=seed)
    payload = {"geometry": report["geometry"], "samples": report["samples"],
               "step": report["step"], "max_rel_err": report["max_rel_err"],
               "per_quantity": dict(sorted(report["per_quantity"].items()))}
    _emit(to_json(payload), out)


if __name__ == "__main__":
    main()
