"""Wall time of each stage of ``cliffspec verify`` on one operator.

    python3 tools/stage_times.py TREE OPERATOR [--g FILE] [--calls 10] [VERIFY OPTIONS]

TREE is a checkout whose ``src/cliffspec`` is imported.  The tool wraps the
stage functions below by name, in the module namespace ``verify`` calls them
from, with ``time.perf_counter``.  It runs ``verify`` on OPERATOR (and the g
of FILE, else the default registry, and any other option given, such as
``--omega 0.9 --theta 1.2``) once to warm up and then ``--calls`` times,
each writing its report to a temporary directory.  It prints each
stage's mean milliseconds per call and its share of the whole
``run_theorem_suite`` call, and under the table the contour the timed
calls ran on, from the last report: nodes per ray, stride and basis
path.  Stages may nest: the ``f0_infty`` row holds the ladder's call too,
and "frames" holds the lattice correlations, so the shares need not add
up to 100%.

A row is timed through those of its names the tree has, and needs one of
them.  Exit codes: 0 done, 2 a tree without ``src/cliffspec`` or without any
name of a row, or an input that ``verify`` refuses.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
import time
from pathlib import Path

# (row label, module, names): a row's time is the sum over its names
STAGES = [
    ("whole verify", "cli", ("run_theorem_suite",)),
    ("f_ab ladder", "suite", ("_fab_ladder_records",)),
    ("frames", "suite", ("family_frames",)),
    # the FFT correlations of the frame families, within "frames": one call
    # per block of kernels (lattice_correlations), or per part and block
    # before the sums went by parity phase (lattice_correlation)
    ("lattice correlations", "calculus", ("lattice_correlations", "lattice_correlation")),
    ("composition records", "suite", ("_composition_bound_records",)),
    ("hinf (T, each g, T*)", "suite", ("_hinf_stage",)),
    # the suite builds T's engine in _grid_engine (by ContourEngine before
    # it had one) and T*'s by ContourEngine
    ("certificates and engines, T and T*", "suite",
     ("check_bisectorial", "_grid_engine", "ContourEngine")),
    ("function certificates (ensure_bounded)", "suite", ("ensure_bounded",)),
    ("f0_infty, the ladder's call included", "suite", ("f0_infty",)),
]


def _timed(fn, label, totals):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[label] += time.perf_counter() - start
    return wrapper


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("operator", type=Path)
    parser.add_argument("--g", type=Path, help="a function spec file, passed to verify --g")
    parser.add_argument("--calls", type=int, default=10)
    args, verify_options = parser.parse_known_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    src = (args.tree / "src").resolve()
    if not (src / "cliffspec" / "__init__.py").is_file():
        print(f"error: no src/cliffspec under {args.tree}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    cli = importlib.import_module("cliffspec.cli")
    if not cli.__file__.startswith(str(src)):
        print(f"error: cliffspec is already imported from {cli.__file__}", file=sys.stderr)
        return 2
    modules = {name: importlib.import_module(f"cliffspec.{name}")
               for name in ("cli", "suite", "calculus")}
    missing = [f"{module}.{' or '.join(names)}" for _, module, names in STAGES
               if not any(hasattr(modules[module], name) for name in names)]
    if missing:
        print(f"error: {args.tree} has no cliffspec.{', cliffspec.'.join(missing)}",
              file=sys.stderr)
        return 2
    totals = dict.fromkeys([label for label, _, _ in STAGES], 0.0)
    saved = [(label, modules[module], name, getattr(modules[module], name))
             for label, module, names in STAGES for name in names
             if hasattr(modules[module], name)]
    for label, module, name, fn in saved:
        setattr(module, name, _timed(fn, label, totals))
    try:
        with tempfile.TemporaryDirectory() as out:
            argv = ["verify", "--operator", str(args.operator), "--out", str(Path(out) / "r.json")]
            argv += (["--g", str(args.g)] if args.g else []) + verify_options
            if cli.main(argv) == 2:   # the warm-up; cli has printed why
                return 2
            totals.update(dict.fromkeys(totals, 0.0))
            for _ in range(args.calls):
                cli.main(argv)
            contour = json.loads((Path(out) / "r.json").read_text()).get("contour")
    finally:
        for _, module, name, fn in saved:
            setattr(module, name, fn)
    whole = totals["whole verify"]
    print(f"{args.operator} on {args.tree}, mean of {args.calls} verify calls after a warm-up")
    print(f"{'stage':<40} {'ms':>8} {'share':>7}")
    for label, seconds in totals.items():
        share = seconds / whole if whole else 0.0
        print(f"{label:<40} {1e3 * seconds / args.calls:8.1f} {share:7.1%}")
    if contour is None:
        print("contour: none, the calculus stages were skipped")
    else:
        print(f"contour: nodes {contour['nodes']}, stride {contour['stride']}, "
              f"basis.path {contour['basis']['path']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
