"""cliffspec benchmark: one workload per process, outputs checked against references.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

Each operation is one ``cliffspec.cli.main(argv)`` call on input files the
benchmark wrote.  A pass runs the workload's operations once in a fixed
order; a run makes whole passes, at least one, and starts another only if it
would end within ``--seconds``.  Outputs are checked after each pass, outside
the timed region.  The last line of standard output is the JSON result.

With ``--trace 1`` the run makes one pass untraced, then traced passes, and
reports the per-layer metrics of the traced ones together with the tracing
overhead; spans go to perfbench/out/<workload>/spans-seed<seed>.jsonl.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are sized at numpy import; two threads match the two
# cores the reference figures were measured on
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg  # noqa: F401  (cliffspec imports it; load it before set-up is timed)

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
CALIBRATION_REFERENCE_S = 0.25
sys.path.insert(0, str(SRC))


class Calibration:
    """Host speed, from a fixed numpy kernel timed before every operation and
    after every pass.

    The kernel does what cliffspec spends its time on: batched SVDs and
    inverses of small matrices and rational functions of complex arrays.  On a
    shared host the speed of such code drifts by up to a third over minutes,
    so every reported time is divided by ``factor``: times are seconds on a
    host where the kernel's median takes CALIBRATION_REFERENCE_S.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrices32 = rng.standard_normal((1500, 32, 32))
        self.matrices64 = rng.standard_normal((600, 64, 64)) + 8.0 * np.eye(64)
        self.points = rng.standard_normal(400_000) + 1j * rng.standard_normal(400_000)
        self.times = []

    def measure(self):
        t0 = time.perf_counter()
        np.linalg.svd(self.matrices32, compute_uv=False)
        np.linalg.inv(self.matrices64)
        for _ in range(5):
            np.polyval([1.0, 0.0, 2.0, 0.0], self.points) / np.polyval([1.0, 0.0, 1.0], self.points)
        self.times.append(time.perf_counter() - t0)

    @property
    def factor(self):
        return statistics.median(self.times) / CALIBRATION_REFERENCE_S


def import_program():
    """Import cliffspec afresh from the checkout's src/, never from elsewhere."""
    for name in [n for n in sys.modules if n == "cliffspec" or n.startswith("cliffspec.")]:
        del sys.modules[name]
    cli = importlib.import_module("cliffspec.cli")
    if Path(cli.__file__).resolve().parent != SRC / "cliffspec":
        raise ImportError(f"cliffspec imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload, seed, directory):
    """Median of SETUP_REPEATS set-ups: a fresh cliffspec import plus the input files."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = import_program()
        ops = workloads.build(workload, seed, directory)
        times.append(time.perf_counter() - t0)
    return cli, ops, statistics.median(times)


def run_pass(cli, ops, calibration, tracer=None, tag=""):
    """Run every operation once; returns (pass seconds, [(op, rc, seconds, bytes)]).

    The pass time is the sum of the operation times, so the calibration
    between operations is not part of it.
    """
    results = []
    for op in ops:
        op.out.unlink(missing_ok=True)
        calibration.measure()
        if tracer is not None:
            tracer.op = f"{tag}{op.slug}"
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # a traceback is a failed operation, not a crash of the run
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        data = op.out.read_bytes() if op.out.exists() else None
        results.append((op, rc, elapsed, data))
    calibration.measure()
    return sum(t for _, _, t, _ in results), results


class Ledger:
    """Failure accounting and output checks over all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}       # (slug, reason) -> count
        self.problems = []
        self.digests = {}

    def record(self, results):
        for op, rc, _, data in results:
            self.attempted += 1
            if isinstance(rc, str) or data is None:
                self._fail(op, rc if isinstance(rc, str) else f"exit {rc}, no output written")
                continue
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(op.slug, digest) != digest:
                self.problems.append(f"{op.slug}: output bytes differ between repetitions")
            try:
                failure, problems = op.check(rc, data)
            except (ValueError, KeyError, TypeError, StopIteration) as exc:
                failure, problems = None, [f"unreadable output: {exc!r}"]
            if failure is not None:
                self._fail(op, failure)
            self.problems.extend(f"{op.slug}: {p}" for p in problems)

    def _fail(self, op, reason):
        if op.fault is not None:
            reason = f"{reason} [known fault: {op.fault}]"
        key = (op.slug, reason)
        self.failures[key] = self.failures.get(key, 0) + 1

    @property
    def failed(self):
        return sum(self.failures.values())


def keep_going(started, last_pass, seconds):
    return time.perf_counter() - started + last_pass <= seconds


def run_workload(args):
    directory = OUT / args.workload
    try:
        cli, ops, setup_s = set_up(args.workload, args.seed, directory)
    except ImportError as exc:
        print(f"error: cannot import cliffspec from {SRC}: {exc}", file=sys.stderr)
        return 2

    ledger = Ledger()
    calibration = Calibration()
    op_times, pass_times = [], []
    started = time.perf_counter()
    while True:
        pass_s, results = run_pass(cli, ops, calibration)
        ledger.record(results)
        pass_times.append(pass_s)
        op_times.extend(t for op, _, t, _ in results if op.main)
        for op, rc, t, _ in results:
            print(f"  {op.slug:<20} exit {rc}  {t:.3f} s")
        if args.trace or not keep_going(started, pass_s, args.seconds):
            break

    if args.trace:
        tracer = Tracer()
        tracer.install()
        layer_runs, traced_times = [], []
        try:
            while True:
                mark = tracer.snapshot()
                pass_s, results = run_pass(cli, ops, calibration, tracer,
                                           tag=f"p{len(traced_times)}:")
                ledger.record(results)
                traced_times.append(pass_s)
                layer_runs.append(tracer.layer_metrics(mark))
                if not keep_going(started, pass_s, args.seconds):
                    break
        finally:
            tracer.uninstall()
        spans_path = directory / f"spans-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        metrics = {name: {"value": statistics.median(run[name][0] for run in layer_runs),
                          "unit": unit}
                   for name, (_, unit) in layer_runs[0].items()}
        traced = statistics.median(traced_times)
        metrics["trace.run_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - pass_times[0], "unit": "s"}
        print(f"trace: {len(tracer.spans)} spans in {spans_path.relative_to(HERE.parent)}; "
              f"traced run_s {traced:.3f} s, untraced {pass_times[0]:.3f} s, "
              f"overhead {traced - pass_times[0]:+.3f} s")
    else:
        metrics = {
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "run_s": {"value": statistics.median(pass_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    factor = calibration.factor
    for m in metrics.values():
        if m["unit"] == "s":
            m["value"] /= factor

    for (slug, reason), count in sorted(ledger.failures.items()):
        print(f"FAILED x{count} {slug}: {reason}")
    for problem in ledger.problems:
        print(f"WRONG {problem}")
    print(f"host speed: calibration kernel median {statistics.median(calibration.times):.4f} s "
          f"over {len(calibration.times)} calls; times below are divided by {factor:.4f}")
    for name, m in metrics.items():
        raw = f" (measured {m['value'] * factor:.6g})" if m["unit"] == "s" else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{raw}")
    correct = not ledger.problems
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], check=False)
        worst = max(worst, child.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
