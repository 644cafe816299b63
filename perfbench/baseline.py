"""The ROADMAP baseline table, re-measured inside a traced run.

Each stage runs a few times on the ROADMAP's fixed inputs (the acceptance
curves, k = 4, a regular 1000-gon); in-process stage times are the durations
of the traced spans, cold stages are process walls.  Every stage carries the
accuracy it reached.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys

import numpy as np

import checks
import gen
import workloads


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(scipy self seconds, equichord cumulative seconds) from ``python -X importtime``."""
    scipy_us = equichord_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[0].strip().isdigit():
            continue  # header line
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2]
        level = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
        if level == 0 and (name == "equichord" or name.startswith("equichord.")):
            equichord_us += cum_us
    return scipy_us * 1e-6, equichord_us * 1e-6


def cli_probes(root: str, reps: int = 3) -> dict:
    """cli.startup_s (cold --help) and the import split, medians over reps."""
    env = workloads.child_env(root)
    help_s, scipy_s, eq_s = [], [], []
    for _ in range(reps):
        code, _, _, wall = workloads.run_cli(["--help"], root)
        if code != 0:
            raise RuntimeError("equichord --help failed")
        help_s.append(wall)
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import equichord.cli"],
                           cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            raise RuntimeError(p.stderr.strip().splitlines()[-1])
        s, e = parse_importtime(p.stderr)
        scipy_s.append(s)
        eq_s.append(e)
    return {"cli.startup_s": statistics.median(help_s),
            "cli.import_scipy_s": statistics.median(scipy_s),
            "cli.import_equichord_s": statistics.median(eq_s)}


def _top_spans(tracer, call, reps: int):
    """Run call() reps times with tracing on; return (results, top-level durations, new spans).

    call must look the traced function up when it runs, after the wrappers are in.
    """
    results, durations = [], []
    first = len(tracer.spans)
    tracer.install()
    try:
        for _ in range(reps):
            start = len(tracer.spans)
            results.append(call())
            s = tracer.spans[start]
            durations.append(s[5] - s[4])
    finally:
        tracer.uninstall()
    return results, durations, tracer.spans[first:]


def run(eq, tracer, root: str, probes: dict) -> list[dict]:
    tracer.task = -1
    alpha4 = checks.ALPHA4
    rows = []

    def add(stage, durations, acc_name, acc):
        rows.append({"stage": stage, "median_s": statistics.median(durations),
                     "reps": len(durations), "accuracy_name": acc_name, "accuracy": acc})

    walls, errs = [], []
    for _ in range(3):
        code, out, _, wall = workloads.run_cli(["solve-angle", "--k", "4"], root)
        roots = [s["c"] for s in json.loads(out)] if code == 0 else [math.nan] * 2
        walls.append(wall)
        errs.append(max(abs(roots[0] - alpha4), abs(roots[1] - (math.pi - alpha4))))
    add("cold_solve_angle_k4", walls, "root_error", max(errs))
    rows.append({"stage": "import_equichord_cli", "median_s": probes["cli.import_equichord_s"],
                 "reps": 3, "accuracy_name": None, "accuracy": None})

    res, dur, _ = _top_spans(tracer, lambda: eq.gutkin_roots(4), 5)
    add("gutkin_roots_k4", dur, "max_rel_residual",
        max(gen.tan_residual(4, c) for c in res[0]))

    curve = eq.build_e2_curve(eq.FourierCurveE2(c0=1.0, harmonics=(eq.Harmonic(4, 0.1, 0.0),)))
    res, dur, new = _top_spans(tracer, lambda: eq.verify_curve_gutkin(curve, alpha4, 64), 3)
    worst = max(r["max_angle_residual"] for r in res)
    shots = [s[5] - s[4] for s in new if s[2] == "geometry.shoot_to_curve"]
    add("shoot_to_curve_per_chord", shots, "max_angle_residual", worst)
    add("verify_curve_gutkin_64", dur, "max_angle_residual", worst)

    res, dur, _ = _top_spans(
        tracer, lambda: eq.export_orbit(curve, eq.BilliardState(0.0, alpha4), 100), 3)
    add("export_orbit_100", dur, "max_drift", max(abs(r[2] - alpha4) for rs in res for r in rs))

    wavy = eq.build_e2_curve(eq.FourierCurveE2(
        c0=1.0, harmonics=(eq.Harmonic(3, 0.3, 0.0), eq.Harmonic(5, 0.1, -np.pi / 2))))
    arclen = eq.ArcLengthParam(wavy)
    s = np.linspace(0.0, arclen.total_length, 1000, endpoint=False)
    res, dur, _ = _top_spans(tracer, lambda: arclen.t_of_s(s), 3)
    add("t_of_s_1000", dur, "max_abs_s_error", float(np.abs(arclen.s_of_t(res[0]) - s).max()))

    res, dur, _ = _top_spans(tracer, lambda: eq.validate_partials(wavy, 100), 3)
    add("validate_partials_e2_100", dur, "max_rel_err", max(r["max_rel_err"] for r in res))

    gon = eq.polygons.regular_polygon(1000)
    res, dur, _ = _top_spans(tracer, lambda: eq.verify_gutkin(gon, 5), 5)
    add("verify_gutkin_1000", dur, "max_residual", max(r["max_residual"] for r in res))
    return rows


def table(rows) -> str:
    lines = [f"{'stage':<28} {'median':>12} {'reps':>5}  accuracy"]
    for r in rows:
        acc = "-" if r["accuracy"] is None else f"{r['accuracy_name']} {r['accuracy']:.2e}"
        lines.append(f"{r['stage']:<28} {r['median_s'] * 1e3:>9.3f} ms {r['reps']:>5}  {acc}")
    return "\n".join(lines)
