"""Machine-speed normalisation of wall times.

On a shared machine the speed of the CPU drifts by tens of percent over
seconds to minutes, and it drifts slowly: successive operations see nearly
the same speed.  So every timed operation is bracketed by a calibration
measurement of fixed, benchmark-owned work, and its wall time is reported in
*reference seconds*:

    reported = wall * REF_S / (mean of the calibrations just before and after)

i.e. the wall time on a machine where the calibration takes exactly REF_S.
The library never runs inside a calibration, so a change to the library moves
the reported times exactly as it moves the walls at a fixed machine speed.

* In-process operations are calibrated by ``kernel``: a short Python loop
  over scalar and small-array numpy calls, the same kind of work as the
  library's shooting and polygon loops.
* Cold processes are calibrated by a cold interpreter that imports numpy and
  a fixed set of standard-library packages: the same kind of work as a cold
  CLI start (interpreter start-up, shared libraries, bytecode loading).  It
  tracked cold CLI commands better than importing numpy alone, and it does
  not depend on scipy, which the library may drop.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

KERNEL_REF_S = 0.002
PROCESS_REF_S = 0.25
SLICE_S = 0.1   # in-process operations between two calibrations, at least
REFERENCE_IMPORTS = ("numpy, json, decimal, fractions, statistics, email.parser, http.client, "
                     "xml.dom.minidom, unittest, argparse, inspect, dataclasses")


def _kernel_once() -> float:
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(700):
        acc += float(np.sin(x * i)[3]) + math.cos(i * 0.5)
    return time.perf_counter() - t0


def kernel() -> float:
    """Seconds taken by the fixed in-process calibration work (best of 3, so an
    interrupt inside one repetition does not count as a slow machine)."""
    return min(_kernel_once() for _ in range(3))


def reference_process(cwd: str, env: dict) -> float:
    """Wall seconds of a cold interpreter importing REFERENCE_IMPORTS."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {REFERENCE_IMPORTS}"], cwd=cwd, env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


class Normaliser:
    """Collects walls between calibration points and scales them when the next point comes.

    ``measure`` returns one calibration sample; ``ref_s`` is its reference value.
    Each record gets ``norm`` = wall * ref_s / mean(calibration before, after).
    """

    def __init__(self, measure, ref_s: float):
        self.measure = measure
        self.ref_s = ref_s
        self.before = measure()
        self.pending: list = []
        self.samples = [self.before]

    def add(self, rec):
        self.pending.append(rec)

    def calibrate(self):
        after = self.measure()
        self.samples.append(after)
        factor = self.ref_s / (0.5 * (self.before + after))
        for rec in self.pending:
            rec.norm = rec.wall * factor
        self.pending = []
        self.before = after

    def speed(self) -> float:
        """Median machine speed seen, relative to the reference (1 = reference speed)."""
        return self.ref_s / float(np.median(self.samples))
