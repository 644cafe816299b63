"""Span tracing of equichord's public functions, installed from outside the package.

Every plain function listed in a layer module's ``__all__`` is wrapped, and so
is ``chords.ArcLengthParam.t_of_s``.  A wrapper replaces the function at its
defining module and at every other ``equichord`` module that imported it by
name (``curves.shoot_to_curve``, ``chords.geodesic_curvature``, ...), so
internal calls are traced as well.  ``fourier`` is left unwrapped because a
call there costs about as much as a wrapper; ``errors`` does no work.

A span is (id, parent id, name, task id, start, end, ok).  Spans stay in
memory; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

import gen

LAYERS = ("angles", "geometry", "chords", "curves", "billiards", "polygons")
METHODS = (("chords", "ArcLengthParam", "t_of_s"),)


def _max_root_residual(args, kwargs, roots):
    k = int(args[0] if args else kwargs["k"])
    return max((gen.tan_residual(k, c) for c in roots), default=0.0)


def _is_e2(args):
    return args[0].geometry.value == "E2"


# worst accuracy reached, read from each call's own result; curve residuals are
# taken on exact E2 curves only, where anything above roundoff is a defect
ACCURACY = {
    "angles.gutkin_roots": ("max_rel_residual", _max_root_residual),
    "chords.validate_partials": ("max_rel_err", lambda a, kw, r: r["max_rel_err"]),
    "curves.verify_curve_gutkin": (
        "max_angle_residual", lambda a, kw, r: r["max_angle_residual"] if _is_e2(a) else None),
    "billiards.invariant_circle_residual": (
        "max_drift", lambda a, kw, r: r if _is_e2(a) else None),
    "polygons.verify_gutkin": ("max_residual", lambda a, kw, r: r["max_residual"]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.task = -1
        self.worst: dict[str, float] = {}
        self._patches: list = []
        self.names: set[str] = set()

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self
        acc = ACCURACY.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                tracer.stack.pop()
                spans[sid] = (sid, parent, name, tracer.task, t0, t1, ok)
            if acc is not None:
                value = acc[1](args, kwargs, result)
                if value is not None:
                    key = f"{name}.{acc[0]}"
                    tracer.worst[key] = max(tracer.worst.get(key, 0.0), float(value))
            return result

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own (for entry points that are not wrapped)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation --------------------------------------------------------

    def prepare(self):
        """Build the patch list; raises AttributeError if a named function is gone."""
        import equichord  # noqa: F401  (loads every layer module)
        mods = {m: sys.modules[f"equichord.{m}"] for m in LAYERS}
        holders = [mod for key, mod in sorted(sys.modules.items())
                   if key == "equichord" or key.startswith("equichord.")]
        for layer, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn)
                self.names.add(name)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            self._patches.append((holder, key, fn, wrapper))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            self.names.add(name)
            self._patches.append((cls, meth, fn, self.wrap(name, fn)))

    def install(self):
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, fn, _ in self._patches:
            setattr(holder, key, fn)

    # -- results -------------------------------------------------------------

    def aggregate(self, since: int = 0) -> dict:
        """Per-name calls, self seconds, failures, over spans[since:]."""
        spans = [s for s in self.spans[since:] if s is not None]
        child = defaultdict(float)
        for s in spans:
            if s[1] >= since:
                child[s[1]] += s[5] - s[4]
        calls, self_s, failed = defaultdict(int), defaultdict(float), defaultdict(int)
        for s in spans:
            calls[s[2]] += 1
            self_s[s[2]] += (s[5] - s[4]) - child.get(s[0], 0.0)
            failed[s[2]] += 0 if s[6] else 1
        return {"calls": dict(calls), "self_s": dict(self_s), "failed": dict(failed)}

    def dump(self, path: str, extra_spans=()):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")
            for s in extra_spans:
                fh.write(json.dumps(s) + "\n")


def merge(total: dict, part: dict):
    for key in ("calls", "self_s", "failed"):
        dst = total.setdefault(key, {})
        for name, v in part.get(key, {}).items():
            dst[name] = dst.get(name, 0) + v
