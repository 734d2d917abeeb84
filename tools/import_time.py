"""Import time of cliffspec in two source trees, each import in a fresh process.

    python3 tools/import_time.py OLD_TREE NEW_TREE [--pairs 30]

A tree is a checkout whose ``src/cliffspec`` is imported.  Each process
imports numpy and scipy.linalg first, as perfbench does before it times a
set-up, and then times ``import cliffspec.cli``.  The process reads no
bytecode of the tree (its ``sys.pycache_prefix`` is an empty directory) and
writes none (PYTHONDONTWRITEBYTECODE=1), so every import compiles the
sources, as it does in the fresh checkout perfbench runs in.  Processes run
one at a time, in pairs that alternate which tree goes first.  The tool
prints the median and the interquartile range (IQR) per tree and the share
of pairs in which NEW imported faster.

Exit codes: 0 done, 2 a tree without ``src/cliffspec``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import sys, time
import numpy, scipy.linalg
src, prefix = sys.argv[1:]
sys.path.insert(0, src)
sys.pycache_prefix = prefix
t0 = time.perf_counter()
import cliffspec.cli
elapsed = time.perf_counter() - t0
assert cliffspec.cli.__file__.startswith(src), cliffspec.cli.__file__
print(elapsed)
"""


def import_seconds(src, prefix):
    """Seconds of one ``import cliffspec.cli`` from ``src`` in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run([sys.executable, "-c", CHILD, str(src), prefix], env=env,
                         check=True, capture_output=True, text=True)
    return float(out.stdout)


def summary(times):
    """(median, IQR) of a list of times."""
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return statistics.median(times), q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)
    srcs = [(tree / "src").resolve() for tree in (args.old, args.new)]
    for src in srcs:
        if not (src / "cliffspec" / "__init__.py").is_file():
            print(f"error: no src/cliffspec under {src.parent}", file=sys.stderr)
            return 2
    times = ([], [])
    with tempfile.TemporaryDirectory() as prefix:
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                times[side].append(import_seconds(srcs[side], prefix))
    for name, src, runs in zip(("old", "new"), srcs, times):
        median, iqr = summary(runs)
        print(f"{name} {src.parent}: median {1e3 * median:.1f} ms, IQR {1e3 * iqr:.1f} ms "
              f"over {len(runs)} imports")
    won = sum(new < old for old, new in zip(*times))
    print(f"new faster in {won} of {args.pairs} pairs ({won / args.pairs:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
