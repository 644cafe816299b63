"""The three closed-loop workloads: one caller, each operation starts after the last ends.

An operation is timed around the library calls (or the whole CLI process) and
checked afterwards, outside the timed region.  Operations are tagged:

* ``main``: the workload's primary operations, behind op_p50_s, op_p90_s and
  work_per_s;
* ``aux``: the secondary class, behind aux_op_p50_s and aux_work_per_s.

``units`` is the work an operation does (chord shots, partial samples, one
command, one polygon operation).  In a traced run every operation runs twice
in a row, untraced then traced, and only the traced pass feeds the spans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import calib
import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))

# functions that must record calls on the workload where they do most of the work
COVERAGE = {
    "cli_session": ["cli.main", "angles.gutkin_roots", "angles.solve_restr2",
                    "geometry.shoot_to_curve", "chords.validate_partials",
                    "curves.build_e2_curve", "curves.build_deformed_circle",
                    "curves.verify_curve_gutkin", "billiards.export_orbit",
                    "polygons.circulant_spectrum", "polygons.verify_gutkin",
                    "polygons.construct_inscribed", "polygons.construct_2kk",
                    "polygons.equiangular_family_basis", "polygons.family_member"],
    "curve_lab": ["angles.gutkin_roots", "geometry.shoot_to_curve",
                  "geometry.geodesic_curvature", "chords.ArcLengthParam.t_of_s",
                  "chords.chord_data", "chords.validate_partials", "curves.build_e2_curve",
                  "curves.build_deformed_circle", "curves.verify_curve_gutkin",
                  "billiards.invariant_circle_residual", "billiards.export_orbit",
                  "billiards.billiard_step"],
    "polygon_tables": ["angles.solve_restr2", "polygons.verify_gutkin",
                       "polygons.circulant_spectrum", "polygons.equiangular_family_basis",
                       "polygons.construct_inscribed", "polygons.construct_2kk",
                       "polygons.family_member", "polygons.exists_nontrivial"],
}

# E2: 46 chords; S2/H2: 23 at eps and 23 at eps/2.  23 is prime and above 2k, so the
# samples meet every phase of the second-order residual pattern (period pi/k);
# a count sharing a factor with 2k can land on its zeros and break the ratio check
VERIFY_CHORDS = 46
ICR_STARTS, ICR_STEPS = 4, 12
ORBIT_STEPS = 32
SHOTS_PER_TASK = VERIFY_CHORDS + ICR_STARTS * ICR_STEPS + ORBIT_STEPS
PARTIAL_SAMPLES = 12


@dataclass
class Record:
    kind: str
    main: bool
    aux: bool
    units: float
    wall: float = 0.0
    norm: float = 0.0     # wall in reference seconds, see calib.py
    errors: list = field(default_factory=list)


@dataclass
class Outcome:
    records: list = field(default_factory=list)      # untraced passes
    traced_wall: float = 0.0
    untraced_wall: float = 0.0
    aggregate: dict = field(default_factory=dict)    # span aggregate of the traced passes
    worst: dict = field(default_factory=dict)
    names: set = field(default_factory=set)
    extra_spans: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    speed: float = 1.0    # median machine speed relative to the calibration reference

    def note(self, rec: Record):
        self.attempted += 1
        if rec.errors:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{rec.kind}: {'; '.join(map(str, rec.errors))}")


def _guard(fn):
    """Run an operation; an exception is a failed operation, not a crashed run."""
    try:
        return fn(), []
    except Exception as exc:  # the library's error, recorded as this operation's failure
        return None, [f"{type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# curve_lab


def _e2_curve(eq, c):
    spec = eq.FourierCurveE2(c0=c["c0"], harmonics=tuple(eq.Harmonic(*h) for h in c["harmonics"]))
    return eq.build_e2_curve(spec)


def _deformed(eq, c, alpha, eps):
    g = eq.TrigPolynomial(0.0, (eq.Harmonic(c["k"], 1.0, c["phase"]),))
    spec = eq.DeformedCircle(geometry=eq.Geometry(c["geometry"]), R=c["R"], epsilon=eps,
                             g=g, alpha=alpha)
    return spec, eq.build_deformed_circle(spec)


def shoot_task(eq, c):
    roots = eq.gutkin_roots(c["k"])
    out = {"roots": roots}
    if c["geometry"] == "E2":
        curve = _e2_curve(eq, c)
        alpha = roots[c["root_index"]]
        out["verify"] = [eq.verify_curve_gutkin(curve, alpha, VERIFY_CHORDS)]
    else:
        alpha = eq.contact_angle_from_c(eq.Geometry(c["geometry"]), c["R"], roots[c["root_index"]])
        spec, curve = _deformed(eq, c, alpha, c["epsilon"])
        _, half = _deformed(eq, c, alpha, c["epsilon"] / 2)
        out["spec"] = spec
        out["verify"] = [eq.verify_curve_gutkin(cv, alpha, VERIFY_CHORDS // 2) for cv in (curve, half)]
    out["alpha"] = alpha
    out["drift"] = eq.invariant_circle_residual(curve, alpha, n_steps=ICR_STEPS, n_starts=ICR_STARTS)
    out["orbit"] = eq.export_orbit(curve, eq.BilliardState(t=c["t0"], theta=alpha), ORBIT_STEPS)
    return out


def partials_task(eq, c, seed):
    if c["geometry"] == "E2":
        curve = _e2_curve(eq, c)
    elif "epsilon" in c:
        curve = _deformed(eq, c, c["alpha"], c["epsilon"])[1]
    else:
        curve = eq.circle_curve(eq.Geometry(c["geometry"]), c["R"])
    return eq.validate_partials(curve, samples=PARTIAL_SAMPLES, seed=seed)


def curve_op(eq, task):
    c = task["curve"]
    if task["kind"] == "shoot":
        rec = Record(f"shoot {c['geometry']}", True, False, SHOTS_PER_TASK)
        return (rec, lambda: shoot_task(eq, c),
                lambda out: checks.shoot(c, out, ORBIT_STEPS))
    rec = Record(f"partials {c['geometry']}", False, True, PARTIAL_SAMPLES)
    return (rec, lambda: partials_task(eq, c, task["seed"]),
            lambda rep: checks.partials(c, rep, PARTIAL_SAMPLES))


# ---------------------------------------------------------------------------
# polygon_tables


POLYGON_CALLS = {
    "circulant_spectrum": lambda eq, op: eq.circulant_spectrum(op["n"], op["k"]),
    "solve_restr2": lambda eq, op: eq.solve_restr2(op["n"], op["k"]),
    "exists_nontrivial": lambda eq, op: eq.exists_nontrivial(op["n"], op["k"]),
    "construct_inscribed": lambda eq, op: eq.construct_inscribed(op["n"], op["k"], op["arcs"]),
    "construct_2kk": lambda eq, op: eq.construct_2kk(op["k"], op["params"]),
    "family_member": lambda eq, op: eq.family_member(op["n"], op["k"], op["coeffs"]),
    "verify_gutkin": lambda eq, op: eq.verify_gutkin(op["vertices"], op["k"]),
    "equiangular_family_basis": lambda eq, op: eq.equiangular_family_basis(op["n"], op["k"]),
}


def polygon_op(eq, op):
    rec = Record(f"{op['op']} n={op['n']}", True, bool(op.get("large")), 1)
    return rec, lambda: POLYGON_CALLS[op["op"]](eq, op), lambda out: checks.polygon(op, out)


# ---------------------------------------------------------------------------
# in-process loop


def _deck_items(workload: str, seed: int):
    """(deck index, operation) in order; deck 0 always runs whole, so coverage is complete."""
    d = 0
    while True:
        for item in gen.deck(workload, seed, d):
            yield d, item
        d += 1


def run_in_process(workload: str, eq, seed: int, seconds: float, tracer) -> Outcome:
    make = curve_op if workload == "curve_lab" else polygon_op
    res = Outcome()
    since = len(tracer.spans) if tracer else 0
    norm = calib.Normaliser(calib.kernel, calib.KERNEL_REF_S)
    start = slice_start = time.perf_counter()
    for index, (d, item) in enumerate(_deck_items(workload, seed)):
        if time.perf_counter() - slice_start >= calib.SLICE_S:
            norm.calibrate()
            slice_start = time.perf_counter()
        if d and time.perf_counter() - start >= seconds:
            break
        rec, call, check = make(eq, item)
        t0 = time.perf_counter()
        out, rec.errors = _guard(call)
        rec.wall = time.perf_counter() - t0
        norm.add(rec)
        if not rec.errors:
            rec.errors = check(out)
        res.records.append(rec)
        res.note(rec)
        if tracer is None:
            continue
        trec = Record(rec.kind, rec.main, rec.aux, rec.units)
        tracer.task = index
        tracer.install()
        t0 = time.perf_counter()
        try:
            out, trec.errors = _guard(call)
        finally:
            trec.wall = time.perf_counter() - t0
            tracer.uninstall()
        if not trec.errors:
            trec.errors = check(out)
        res.note(trec)
        res.untraced_wall += rec.wall
        res.traced_wall += trec.wall
    norm.calibrate()
    res.speed = norm.speed()
    if tracer is not None:
        res.aggregate = tracer.aggregate(since)
        res.worst = dict(tracer.worst)
        res.names = set(tracer.names)
    return res


# ---------------------------------------------------------------------------
# cli_session


def child_env(root: str, spans_path: str | None = None) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("EQUICHORD_TOL", None)
    if spans_path:
        env["PERFBENCH_SPANS"] = spans_path
    return env


def process_normaliser(root: str) -> calib.Normaliser:
    env = child_env(root)
    return calib.Normaliser(lambda: calib.reference_process(root, env), calib.PROCESS_REF_S)


def run_cli(args, root: str, traced_spans: str | None = None) -> tuple[int, str, str, float]:
    if traced_spans:
        argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), *args]
    else:
        argv = [sys.executable, "-m", "equichord.cli", *args]
    t0 = time.perf_counter()
    p = subprocess.run(argv, cwd=root, env=child_env(root, traced_spans),
                       capture_output=True, text=True, timeout=120)
    return p.returncode, p.stdout, p.stderr, time.perf_counter() - t0


def _cli_commands(seed: int, workdir: str):
    """(deck index, command, ...) in order; the two dicts carry results across a block
    (pair checks).  Deck 0 always runs whole, so every command kind is covered."""
    d = 0
    while True:
        for block in gen.cli_deck(seed, d, workdir):
            ctx, tctx = {}, {}
            for cmd in block:
                yield d, cmd, ctx, tctx
        d += 1


def run_cli_session(root: str, workdir: str, seed: int, seconds: float, traced: bool) -> Outcome:
    import spans
    res = Outcome()
    spans_path = os.path.join(workdir, "spans.json")
    norm = process_normaliser(root)
    start = time.perf_counter()
    for index, (d, cmd, ctx, tctx) in enumerate(_cli_commands(seed, workdir)):
        if d and time.perf_counter() - start >= seconds:
            break
        heavy = bool(cmd.get("heavy"))
        rec = Record(" ".join(cmd["args"][:2]), True, heavy, 1)
        code, out, err, rec.wall = run_cli(cmd["args"], root)
        norm.add(rec)
        norm.calibrate()
        rec.errors = _cli_errors(cmd, code, out, err, ctx)
        res.records.append(rec)
        res.note(rec)
        if not traced:
            continue
        trec = Record(rec.kind, True, heavy, 1)
        code, out, err, trec.wall = run_cli(cmd["args"], root, spans_path)
        trec.errors = _cli_errors(cmd, code, out, err, tctx)
        res.note(trec)
        res.untraced_wall += rec.wall
        res.traced_wall += trec.wall
        with open(spans_path) as fh:
            child = json.load(fh)
        os.remove(spans_path)
        spans.merge(res.aggregate, child["aggregate"])
        for key, v in child["worst"].items():
            res.worst[key] = max(res.worst.get(key, 0.0), v)
        res.names.update(child["names"])
        res.extra_spans += [[s[0], s[1], s[2], index, s[4], s[5], s[6]]
                            for s in child["spans"] if s is not None]
    res.speed = norm.speed()
    return res


def _cli_errors(cmd, code, out, err, ctx) -> list:
    try:
        bad = checks.cli(cmd, code, out, ctx)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparsable output
        bad = [f"unparsable output ({type(exc).__name__}: {exc})"]
    if bad and err.strip():
        bad.append(err.strip().splitlines()[-1])
    return bad
