"""Workload definitions: the operators, function specs and CLI calls of each pass.

Every input is generated here from the benchmark seed and written as JSON in
the file formats of the cliffspec README.  The program sees only those files.
Two operations fail on today's code because of known faults; their inputs do
not depend on the seed, so they fail in every pass of every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import oracle

REGULARIZER = {"name": "regularizer"}
SQUARE_RATIO = {"name": "rational",
                "params": {"num": [1.0, 0.0, 0.0], "den": [1.0, 0.0, 1.0], "bounded": True}}
OMEGA_DEFAULT = math.pi / 12

LADDER_FAULT = ("suite._fab_ladder_records compares f_ab(T) with pi Id; for spectrum in the "
                "left half of the sector the limit is pi sgn(T)")
BISECT_FAULT = ("check_bisectorial certifies from grid nodes, not from the exact S-spectrum "
                "(ROADMAP item 1)")


@dataclass
class Op:
    """One CLI call.  ``main`` operations make up op_s; the rest count in run_s."""

    slug: str
    command: str
    coeffs: np.ndarray
    args: list = field(default_factory=list)
    function: dict | None = None     # calc --function
    g: dict | None = None            # verify --g (default registry when None)
    main: bool = True
    jordan: float | None = None      # T = jordan * I + N with N^2 = 0
    omega: float = OMEGA_DEFAULT
    fault: str | None = None
    argv: list = field(default_factory=list)
    out: Path | None = None

    @cached_property
    def reference(self) -> oracle.Reference:
        return oracle.Reference(self.coeffs, jordan=self.jordan)

    def check(self, rc, data: bytes):
        """(failure, problems) of one execution; see oracle.check_*."""
        if self.command == "verify":
            return oracle.check_verify(self.reference, rc, data)
        if self.command == "calc":
            return oracle.check_calc(self.reference, self.function, rc, data)
        return oracle.check_bisect(self.reference, self.omega, rc, data)


def scalar_matrix(rows, n):
    """Clifford matrix with real scalar entries."""
    rows = np.asarray(rows, dtype=float)
    coeffs = np.zeros(rows.shape + (1 << n,))
    coeffs[:, :, 0] = rows
    return coeffs


def hermitian_part(rng, n, m):
    """A + A* with standard normal Clifford entries in A, left unscaled."""
    a = rng.standard_normal((m, m, 1 << n))
    return a + oracle.adjoint(a)


def verify_small(seed):
    # fixed operators; the seed drives verify's random test vectors
    common = ["--seed", str(seed)]
    one_plus_e1 = np.array([[[1.0, 1.0]]])
    return [
        Op("verify-diag", "verify", scalar_matrix([[1.0, 0.0], [0.0, -2.0]], 1), common),
        Op("verify-jordan", "verify", scalar_matrix([[1.0, 1.0], [0.0, 1.0]], 1), common,
           jordan=1.0),
        Op("verify-1+e1", "verify", one_plus_e1,
           ["--omega", "0.9", "--theta", "1.2"] + common),
    ]


def verify_d32(seed):
    # the seed-0 operator exposes the ladder fault in every run, so neither it
    # nor verify's own seed follows the benchmark seed
    t = hermitian_part(np.random.default_rng(0), 3, 4)
    return [Op("verify-d32", "verify", t, ["--seed", "0"], g=REGULARIZER, fault=LADDER_FAULT)]


def calc_d64(seed):
    rng = np.random.default_rng(seed)
    ops = []
    # one calc per operator keeps a pass near 20 s
    for name, spec in (("A-regularizer", REGULARIZER), ("B-square-ratio", SQUARE_RATIO)):
        t = hermitian_part(rng, 3, 8)
        # unscaled, the scan grid grows with ||T||^2 and does not fit in memory
        t *= 2.0 / np.abs(np.linalg.eigvalsh(oracle.rho(t))).max()
        ops.append(Op(f"calc-{name}", "calc", t, function=spec))
    # a + b e1 with slice angle below 11.3 degrees, inside the default sector
    a = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    small = np.array([[[a, a * rng.uniform(-0.2, 0.2)]]])
    rotation = scalar_matrix([[0.3, -1.1], [1.1, 0.3]], 1)
    bisect = ["--omega", repr(OMEGA_DEFAULT)]
    return ops + [
        Op("bisect-rotation", "bisect", rotation, bisect, main=False, fault=BISECT_FAULT),
        # runs the verify-only layers (families, frames, ladder, suite) at D = 2
        Op("verify-d2", "verify", small, ["--nodes", "1000", "--seed", str(seed)],
           g=REGULARIZER, main=False),
        # the same call again: its output bytes must repeat
        Op("bisect-rotation", "bisect", rotation, bisect, main=False, fault=BISECT_FAULT),
    ]


WORKLOADS = {"verify-small": verify_small, "verify-d32": verify_d32, "calc-d64": calc_d64}


def _write(obj, path: Path) -> str:
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def build(name, seed, directory: Path):
    """The operations of one pass, with their input files written to ``directory``."""
    ops = WORKLOADS[name](seed)
    inputs, outputs = directory / "inputs", directory / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.out = outputs / f"{op.slug}.json"
        argv = [op.command,
                "--operator", _write(oracle.operator_json(op.coeffs), inputs / f"{op.slug}.json"),
                "--out", str(op.out)]
        if op.function is not None:
            argv += ["--function", _write(op.function, inputs / f"{op.slug}-f.json")]
        if op.g is not None:
            argv += ["--g", _write(op.g, inputs / f"{op.slug}-g.json")]
        op.argv = argv + op.args
    return ops
