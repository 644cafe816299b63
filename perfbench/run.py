"""equichord benchmark: one command runs a seeded workload, checks every output, prints metrics.

    python3 perfbench/run.py --workload {cli_session,curve_lab,polygon_tables}
                             --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the library is imported from ./src.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end metrics
of BENCHMARK.json, with --trace 1 its per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

# pinned before numpy is imported here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli_session", "curve_lab", "polygon_tables")
SETUP_REPS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and generate the first deck, then exit")
    return p.parse_args(argv)


def _import_equichord():
    if not os.path.isfile(os.path.join(SRC, "equichord", "__init__.py")):
        sys.exit(f"perfbench: no equichord sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import equichord
    if not os.path.abspath(equichord.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported equichord from {equichord.__file__}, not {SRC}")
    return equichord


def _setup_s(args) -> float:
    """Median time from a fresh interpreter to ready-for-the-first-operation, in
    reference seconds (calib.py)."""
    import workloads
    if args.workload == "cli_session":
        argv = None  # a cold `equichord --help`
    else:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    norm = workloads.process_normaliser(ROOT)
    probes = []
    for _ in range(SETUP_REPS):
        rec = workloads.Record("setup", False, False, 1)
        if argv is None:
            code, _, err, rec.wall = workloads.run_cli(["--help"], ROOT)
        else:
            t0 = time.perf_counter()
            p = subprocess.run(argv, cwd=ROOT, env=workloads.child_env(ROOT),
                               capture_output=True, text=True, timeout=120)
            code, err, rec.wall = p.returncode, p.stderr, time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        norm.add(rec)
        norm.calibrate()
        probes.append(rec)
    return statistics.median(r.norm for r in probes)


def _pct(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


def end_to_end(outcome, setup_s: float) -> dict:
    main = [r for r in outcome.records if r.main]
    aux = [r for r in outcome.records if r.aux]
    if not main or not aux:
        raise RuntimeError("run too short: no operation of some class completed")
    return {
        "setup_s": setup_s,
        "ok_frac": 1.0 - outcome.failed / outcome.attempted,
        "op_p50_s": _pct([r.norm for r in main], 50),
        "op_p90_s": _pct([r.norm for r in main], 90),
        "work_per_s": sum(r.units for r in main) / sum(r.norm for r in main),
        "aux_op_p50_s": _pct([r.norm for r in aux], 50),
        "aux_work_per_s": sum(r.units for r in aux) / sum(r.norm for r in aux),
    }


def per_layer(outcome, probes: dict, rows: list, missing: list) -> dict:
    agg = outcome.aggregate
    out = dict(probes)
    for name in outcome.names | {"cli.main"}:
        out[f"{name}.calls"] = agg.get("calls", {}).get(name, 0)
        out[f"{name}.self_s"] = agg.get("self_s", {}).get(name, 0.0)
        out[f"{name}.failed"] = agg.get("failed", {}).get(name, 0)
    import spans
    for name, (acc, _) in spans.ACCURACY.items():
        out[f"{name}.{acc}"] = outcome.worst.get(f"{name}.{acc}", 0.0)
    out["trace.overhead_frac"] = outcome.traced_wall / outcome.untraced_wall - 1.0
    out["trace.spans"] = sum(agg.get("calls", {}).values())
    out["trace.coverage_missing"] = len(missing)
    for r in rows:
        out[f"baseline.{r['stage']}.median_s"] = r["median_s"]
        if r["accuracy"] is not None:
            out[f"baseline.{r['stage']}.{r['accuracy_name']}"] = r["accuracy"]
    return out


def environment(eq) -> dict:
    import numpy
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "equichord": eq.__version__,
            "nproc": affinity, "cpu_count": os.cpu_count(),
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "machine": platform.machine()}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, HERE)
    eq = _import_equichord()
    import gen
    if args.setup_probe:
        gen.deck(args.workload, args.seed, 0)
        return 0

    import baseline
    import spans
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    gen.self_test(args.workload, args.seed)
    env = environment(eq)
    print(json.dumps({"environment": env}))

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.prepare()
    setup_s = None if args.trace else _setup_s(args)

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=os.path.join(ROOT, ".perfbench_out")) as tmp:
        if args.workload == "cli_session":
            outcome = workloads.run_cli_session(ROOT, tmp, args.seed, args.seconds, bool(args.trace))
        else:
            outcome = workloads.run_in_process(args.workload, eq, args.seed, args.seconds, tracer)

    main_n = sum(1 for r in outcome.records if r.main)
    aux_n = sum(1 for r in outcome.records if r.aux)
    raw_p50 = _pct([r.wall for r in outcome.records if r.main], 50) if main_n else None
    print(json.dumps({"workload": args.workload, "seed": args.seed, "main_ops": main_n,
                      "aux_ops": aux_n, "attempted": outcome.attempted, "failed": outcome.failed,
                      "machine_speed": outcome.speed, "raw_op_p50_s": raw_p50}))
    for line in outcome.failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    correct = outcome.failed == 0
    if args.trace:
        missing = [n for n in workloads.COVERAGE[args.workload]
                   if outcome.aggregate.get("calls", {}).get(n, 0) == 0]
        for n in missing:
            print(f"perfbench: COVERAGE {n} recorded no calls on {args.workload}", file=sys.stderr)
        correct = correct and not missing
        probes = baseline.cli_probes(ROOT)
        rows = baseline.run(eq, tracer, ROOT, probes)
        print(baseline.table(rows))
        values = per_layer(outcome, probes, rows, missing)
        wanted = spec["per_layer"]
        path = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.dump(path, outcome.extra_spans)
    else:
        values = end_to_end(outcome, setup_s)
        wanted = spec["end_to_end"]

    absent = [m["name"] for m in wanted if m["name"] not in values]
    for name in absent:
        print(f"perfbench: METRIC {name} was not measured (function renamed or gone?)",
              file=sys.stderr)
    correct = correct and not absent
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": bool(correct), "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
