"""Spans around cliffspec's layer boundaries, installed from outside the program.

Each wrapped function records a span (name, start, end, parent, operation);
``numpy.linalg.svd`` and ``numpy.linalg.inv`` only count the matrices they
receive.  Wrappers replace the function under every name a cliffspec module
looks it up by (``from .spectrum import check_bisectorial`` binds a second
name in the importing module), and methods on their class.  The program runs
single-threaded (``--jobs 1``), so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (module, attribute path, span name).  Work in clifford, module and
# reduction stays in the self time of whichever span calls it.
TARGETS = [
    ("cliffspec.cli", "main", "cli.main"),
    ("cliffspec.spectrum", "check_bisectorial", "spectrum.check_bisectorial"),
    ("cliffspec.spectrum", "scan_spectrum_slice", "spectrum.scan_spectrum_slice"),
    ("cliffspec.calculus", "ContourEngine.__init__", "calculus.engine_build"),
    ("cliffspec.calculus", "ContourEngine.evaluate_family", "calculus.evaluate_family"),
    ("cliffspec.calculus", "ContourEngine.evaluate", "calculus.evaluate"),
    ("cliffspec.calculus", "hinf_calculus", "calculus.hinf_calculus"),
    ("cliffspec.calculus", "f_ab_operator", "calculus.f_ab_operator"),
    ("cliffspec.functions", "IntrinsicFunction.eval_complex", "functions.eval_complex"),
    ("cliffspec.functions", "certify_decay", "functions.certify"),
    ("cliffspec.functions", "certify_bounded", "functions.certify"),
    ("cliffspec.quadratic", "frame_bounds", "quadratic.frame_bounds"),
    ("cliffspec.suite", "run_theorem_suite", "suite.run_theorem_suite"),
    ("cliffspec.serialization", "parse_operator_file", "serialization.io"),
    ("cliffspec.serialization", "load_function_spec", "serialization.io"),
    ("cliffspec.serialization", "write_json", "serialization.io"),
    ("cliffspec.serialization", "dumps_report", "serialization.io"),
]

# per-layer metric -> span whose self time it sums
SELF_TIMES = {
    "spectrum.bisect_s": "spectrum.check_bisectorial",
    "spectrum.scan_s": "spectrum.scan_spectrum_slice",
    "calculus.engine_build_s": "calculus.engine_build",
    "calculus.family_s": "calculus.evaluate_family",
    "calculus.evaluate_s": "calculus.evaluate",
    "calculus.hinf_s": "calculus.hinf_calculus",
    "calculus.fab_s": "calculus.f_ab_operator",
    "functions.profile_s": "functions.eval_complex",
    "functions.certify_s": "functions.certify",
    "quadratic.frame_s": "quadratic.frame_bounds",
    "suite.self_s": "suite.run_theorem_suite",
    "serialization.io_s": "serialization.io",
}
COUNTS = ["spectrum.scan_nodes", "calculus.engine_builds", "calculus.family_values",
          "calculus.hinf_calls", "functions.profile_points", "linalg.svd_matrices",
          "linalg.inv_matrices"]


def _matrices(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    """Span recorder; ``install`` patches cliffspec, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []          # [id, name, op, parent, start, end]
        self.stack = []
        self.op = None           # operation id while cli.main runs, else None
        self.counts = dict.fromkeys(COUNTS, 0)
        self.engine_bytes = []
        self._patched = []       # (owner, attribute, original)
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------
    def _span(self, name, fn, count=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if count is not None:
                key, amount = count(*args, **kwargs)
                self.counts[key] += amount
            span = [len(self.spans), name, self.op,
                    self.stack[-1][0] if self.stack else None, time.perf_counter(), None]
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(*args, **kwargs)
            return result
        return wrapper

    def _counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self.op is not None:
                self.counts[key] += _matrices(a)
            return fn(a, *args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------
    def _replace(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        hooks = {
            "spectrum.scan_spectrum_slice": dict(
                count=lambda T, grid, *a, **k: ("spectrum.scan_nodes", grid.nx * grid.ny)),
            "calculus.engine_build": dict(
                count=lambda *a, **k: ("calculus.engine_builds", 1),
                after=lambda engine, *a, **k: self.engine_bytes.append(engine.A.nbytes)),
            "calculus.evaluate_family": dict(
                count=lambda engine, f, ts, *a, **k: ("calculus.family_values", int(np.size(ts)))),
            "calculus.hinf_calculus": dict(
                count=lambda *a, **k: ("calculus.hinf_calls", 1)),
            "functions.eval_complex": dict(
                count=lambda f, z, *a, **k: ("functions.profile_points", int(np.size(z)))),
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "cliffspec" or name.startswith("cliffspec.")]
        for module_name, path, span in TARGETS:
            owner = sys.modules[module_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr]
            wrapper = self._span(span, original, **hooks.get(span, {}))
            if cls:
                self._replace(owner, attr, wrapper)
                continue
            # every module-level name bound to this function
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapper)
        self._replace(np.linalg, "svd", self._counter("linalg.svd_matrices", np.linalg.svd))
        self._replace(np.linalg, "inv", self._counter("linalg.inv_matrices", np.linalg.inv))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def snapshot(self):
        """Marker for ``layer_metrics``: spans and counts so far."""
        return len(self.spans), dict(self.counts), len(self.engine_bytes)

    def layer_metrics(self, since):
        """Per-layer totals for the spans and counts recorded after ``since``."""
        first, counts0, engines0 = since
        spans = self.spans[first:]
        child = {}
        for _, _, _, parent, start, end in spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_time = {}
        for sid, name, _, _, start, end in spans:
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
        out = {metric: (self_time.get(span, 0.0), "s") for metric, span in SELF_TIMES.items()}
        for key in COUNTS:
            out[key] = (self.counts[key] - counts0[key], "count")
        engines = self.engine_bytes[engines0:]
        out["calculus.engine_mb"] = (max(engines) / 2 ** 20 if engines else 0.0, "MB")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, op, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "op": op, "parent": parent,
                                     "start": start - self.t0, "end": end - self.t0}) + "\n")
